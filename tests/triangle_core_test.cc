#include "tkc/core/triangle_core.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "tkc/baselines/naive.h"
#include "tkc/core/core_extraction.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

std::vector<uint32_t> LiveKappas(const Graph& g,
                                 const std::vector<uint32_t>& kappa) {
  std::vector<uint32_t> out;
  g.ForEachEdge([&](EdgeId e, const Edge&) { out.push_back(kappa[e]); });
  return out;
}

TEST(TriangleCoreTest, EmptyGraph) {
  Graph g;
  TriangleCoreResult r = ComputeTriangleCores(g);
  EXPECT_EQ(r.max_kappa, 0u);
  EXPECT_EQ(r.triangle_count, 0u);
  EXPECT_TRUE(r.peel_sequence.empty());
}

TEST(TriangleCoreTest, TriangleFreeGraphAllZero) {
  Graph g = CycleGraph(12);
  TriangleCoreResult r = ComputeTriangleCores(g);
  EXPECT_EQ(r.max_kappa, 0u);
  g.ForEachEdge([&](EdgeId e, const Edge&) { EXPECT_EQ(r.kappa[e], 0u); });
}

TEST(TriangleCoreTest, PaperFigure2Example) {
  // The worked example of Section IV-A: κ(AB) = κ(AC) = 1, all other edges
  // κ = 2.
  Graph g = PaperFigure2Graph();
  TriangleCoreResult r = ComputeTriangleCores(g);
  constexpr VertexId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;
  EXPECT_EQ(r.kappa[g.FindEdge(kA, kB)], 1u);
  EXPECT_EQ(r.kappa[g.FindEdge(kA, kC)], 1u);
  EXPECT_EQ(r.kappa[g.FindEdge(kB, kC)], 2u);
  EXPECT_EQ(r.kappa[g.FindEdge(kB, kD)], 2u);
  EXPECT_EQ(r.kappa[g.FindEdge(kB, kE)], 2u);
  EXPECT_EQ(r.kappa[g.FindEdge(kC, kD)], 2u);
  EXPECT_EQ(r.kappa[g.FindEdge(kC, kE)], 2u);
  EXPECT_EQ(r.kappa[g.FindEdge(kD, kE)], 2u);
  EXPECT_EQ(r.max_kappa, 2u);
  EXPECT_EQ(r.triangle_count, 5u);
}

TEST(TriangleCoreTest, CliqueHasKappaNMinus2) {
  // Section III: an n-vertex clique is an n-vertex Triangle K-Core with
  // number n-2.
  for (VertexId n : {3, 4, 5, 8, 12}) {
    Graph g = CompleteGraph(n);
    TriangleCoreResult r = ComputeTriangleCores(g);
    EXPECT_EQ(r.max_kappa, n - 2u) << "n=" << n;
    g.ForEachEdge([&](EdgeId e, const Edge&) {
      EXPECT_EQ(r.kappa[e], n - 2u);
    });
  }
}

TEST(TriangleCoreTest, KappaNeverExceedsSupport) {
  Rng rng(31);
  Graph g = PowerLawCluster(200, 3, 0.7, rng);
  TriangleCoreResult r = ComputeTriangleCores(g);
  auto support = ComputeEdgeSupports(CsrGraph(g));
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_LE(r.kappa[e], support[e]);
  });
}

TEST(TriangleCoreTest, PeelSequenceMonotoneAndOrdersConsistent) {
  Rng rng(37);
  Graph g = ErdosRenyi(60, 0.15, rng);
  TriangleCoreResult r = ComputeTriangleCores(g);
  ASSERT_EQ(r.peel_sequence.size(), g.NumEdges());
  uint32_t prev = 0;
  for (size_t i = 0; i < r.peel_sequence.size(); ++i) {
    EdgeId e = r.peel_sequence[i];
    EXPECT_EQ(r.order[e], i);
    EXPECT_GE(r.kappa[e], prev);  // κ along the peel is non-decreasing
    prev = r.kappa[e];
  }
}

TEST(TriangleCoreTest, StorageModesAgree) {
  for (uint64_t seed : {1, 7, 19}) {
    Rng rng(seed);
    Graph g = PowerLawCluster(150, 3, 0.6, rng);
    auto stored = ComputeTriangleCores(g, TriangleStorageMode::kStoreTriangles);
    auto recomputed =
        ComputeTriangleCores(g, TriangleStorageMode::kRecomputeTriangles);
    EXPECT_EQ(stored.kappa, recomputed.kappa) << "seed=" << seed;
    EXPECT_EQ(stored.order, recomputed.order) << "seed=" << seed;
    EXPECT_EQ(stored.peel_sequence, recomputed.peel_sequence)
        << "seed=" << seed;
    EXPECT_EQ(stored.max_kappa, recomputed.max_kappa);
    EXPECT_EQ(stored.triangle_count, recomputed.triangle_count);
  }
}

TEST(TriangleCoreTest, Theorem1HoldsOnDecomposition) {
  Rng rng(43);
  Graph g = PlantedPartition(4, 12, 0.5, 0.03, rng);
  TriangleCoreResult r = ComputeTriangleCores(g);
  EXPECT_TRUE(VerifyTheorem1(CsrGraph(g), r.kappa));
}

TEST(TriangleCoreTest, PlantedCliqueDominatesBackground) {
  Rng rng(47);
  Graph g = GnmRandom(300, 600, rng);
  auto members = PlantRandomClique(g, 12, rng);
  TriangleCoreResult r = ComputeTriangleCores(g);
  // Every intra-clique edge reaches at least κ = 10 (= 12-2).
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      EdgeId e = g.FindEdge(members[i], members[j]);
      ASSERT_NE(e, kInvalidEdge);
      EXPECT_GE(r.kappa[e], 10u);
    }
  }
  EXPECT_GE(r.max_kappa, 10u);
}

TEST(TriangleCoreTest, DeadEdgeIdsKeepZeroKappaAndInvalidOrder) {
  Graph g = CompleteGraph(5);
  EdgeId dead = g.FindEdge(0, 1);
  g.RemoveEdgeById(dead);
  TriangleCoreResult r = ComputeTriangleCores(g);
  EXPECT_EQ(r.kappa[dead], 0u);
  EXPECT_EQ(r.order[dead], kInvalidOrder);
}

TEST(TriangleCoreTest, CocliqueSizeIsKappaPlus2) {
  Graph g = CompleteGraph(6);
  TriangleCoreResult r = ComputeTriangleCores(g);
  EdgeId e = g.FindEdge(0, 1);
  EXPECT_EQ(r.CocliqueSize(e), 6u);
}

// Property sweep: Algorithm 1 must agree with the brute-force
// iterated-deletion decomposition on every random model.
struct SweepParam {
  uint64_t seed;
  int model;  // 0 = ER, 1 = Gnm+clique, 2 = BA, 3 = planted partition
};

class TriangleCoreMatchesNaive
    : public ::testing::TestWithParam<SweepParam> {};

Graph MakeModelGraph(const SweepParam& p) {
  Rng rng(p.seed);
  switch (p.model) {
    case 0:
      return ErdosRenyi(45, 0.15, rng);
    case 1: {
      Graph g = GnmRandom(60, 120, rng);
      PlantRandomClique(g, 8, rng);
      return g;
    }
    case 2:
      return PowerLawCluster(70, 3, 0.7, rng);
    default:
      return PlantedPartition(3, 13, 0.55, 0.04, rng);
  }
}

TEST_P(TriangleCoreMatchesNaive, Decomposition) {
  Graph g = MakeModelGraph(GetParam());
  TriangleCoreResult fast = ComputeTriangleCores(g);
  std::vector<uint32_t> slow = NaiveTriangleCores(g);
  EXPECT_EQ(LiveKappas(g, fast.kappa), LiveKappas(g, slow));
}

INSTANTIATE_TEST_SUITE_P(
    Models, TriangleCoreMatchesNaive,
    ::testing::Values(SweepParam{1, 0}, SweepParam{2, 0}, SweepParam{3, 0},
                      SweepParam{4, 1}, SweepParam{5, 1}, SweepParam{6, 1},
                      SweepParam{7, 2}, SweepParam{8, 2}, SweepParam{9, 2},
                      SweepParam{10, 3}, SweepParam{11, 3},
                      SweepParam{12, 3}));

}  // namespace
}  // namespace tkc
