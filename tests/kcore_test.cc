#include "tkc/graph/kcore.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "tkc/baselines/naive.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(KCoreTest, EmptyGraph) {
  Graph g;
  KCoreResult r = ComputeKCores(CsrGraph(g));
  EXPECT_EQ(r.max_core, 0u);
  EXPECT_TRUE(r.core_of.empty());
}

TEST(KCoreTest, IsolatedVertices) {
  Graph g(5);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  for (uint32_t c : r.core_of) EXPECT_EQ(c, 0u);
}

TEST(KCoreTest, CompleteGraph) {
  Graph g = CompleteGraph(6);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  EXPECT_EQ(r.max_core, 5u);
  for (uint32_t c : r.core_of) EXPECT_EQ(c, 5u);
}

TEST(KCoreTest, PathGraph) {
  Graph g = PathGraph(10);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  EXPECT_EQ(r.max_core, 1u);
}

TEST(KCoreTest, CycleGraph) {
  Graph g = CycleGraph(10);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  for (uint32_t c : r.core_of) EXPECT_EQ(c, 2u);
}

TEST(KCoreTest, StarGraph) {
  Graph g = StarGraph(8);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  for (uint32_t c : r.core_of) EXPECT_EQ(c, 1u);
}

TEST(KCoreTest, PaperFigure1a) {
  // Figure 1(a): a 5-vertex K-Core with number 2 using minimal edges = C5.
  Graph g = CycleGraph(5);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  EXPECT_EQ(r.max_core, 2u);
}

TEST(KCoreTest, CliqueInSparseBackground) {
  Rng rng(3);
  Graph g = GnmRandom(200, 300, rng);
  auto members = PlantRandomClique(g, 10, rng);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  for (VertexId v : members) EXPECT_GE(r.core_of[v], 9u);
}

TEST(KCoreTest, PeelOrderIsMonotoneInCore) {
  Rng rng(5);
  Graph g = PowerLawCluster(150, 3, 0.5, rng);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  uint32_t prev = 0;
  for (VertexId v : r.peel_order) {
    EXPECT_GE(r.core_of[v], prev);
    prev = r.core_of[v];
  }
  EXPECT_EQ(r.peel_order.size(), g.NumVertices());
}

TEST(KCoreTest, MembersHaveMinDegreeK) {
  Rng rng(9);
  Graph g = ErdosRenyi(80, 0.15, rng);
  KCoreResult r = ComputeKCores(CsrGraph(g));
  for (uint32_t k = 1; k <= r.max_core; ++k) {
    auto members = KCoreMembers(r, k);
    std::vector<bool> in(g.NumVertices(), false);
    for (VertexId v : members) in[v] = true;
    for (VertexId v : members) {
      uint32_t deg_in = 0;
      for (const Neighbor& nb : g.Neighbors(v)) deg_in += in[nb.vertex];
      EXPECT_GE(deg_in, k) << "vertex " << v << " at k=" << k;
    }
  }
}

class KCoreMatchesNaive : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KCoreMatchesNaive, OnRandomModels) {
  Rng rng(GetParam());
  Graph er = ErdosRenyi(50, 0.12, rng);
  EXPECT_EQ(ComputeKCores(CsrGraph(er)).core_of, NaiveKCores(er));
  Graph ba = BarabasiAlbert(60, 2, rng);
  EXPECT_EQ(ComputeKCores(CsrGraph(ba)).core_of, NaiveKCores(ba));
  Graph pp = PlantedPartition(3, 12, 0.5, 0.05, rng);
  EXPECT_EQ(ComputeKCores(CsrGraph(pp)).core_of, NaiveKCores(pp));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreMatchesNaive,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace tkc
