#include "tkc/core/core_extraction.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(CoreExtractionTest, GlobalCoreIsKappaThreshold) {
  Rng rng(3);
  const CsrGraph g(ErdosRenyi(50, 0.2, rng));
  TriangleCoreResult r = ComputeTriangleCores(g);
  for (uint32_t k = 0; k <= r.max_kappa; ++k) {
    CoreSubgraph sub = TriangleKCore(g, r.kappa, k);
    for (EdgeId e : sub.edges) EXPECT_GE(r.kappa[e], k);
    // Claim 2: G_k is a Triangle K-Core with number k.
    EXPECT_TRUE(VerifyTriangleKCore(g, sub.edges, k)) << "k=" << k;
  }
}

TEST(CoreExtractionTest, MaxCoreOfEdgeIsValidAndContainsEdge) {
  Rng rng(5);
  const CsrGraph g(PowerLawCluster(120, 3, 0.7, rng));
  TriangleCoreResult r = ComputeTriangleCores(g);
  int checked = 0;
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    if (checked >= 25) return;
    ++checked;
    CoreSubgraph sub = MaxTriangleCoreOf(g, r.kappa, e);
    EXPECT_EQ(sub.k, r.kappa[e]);
    EXPECT_TRUE(std::binary_search(sub.edges.begin(), sub.edges.end(), e));
    EXPECT_TRUE(VerifyTriangleKCore(g, sub.edges, sub.k));
  });
}

TEST(CoreExtractionTest, CliqueCoreIsWholeClique) {
  const CsrGraph g(CompleteGraph(7));
  TriangleCoreResult r = ComputeTriangleCores(g);
  EdgeId e = g.FindEdge(2, 5);
  CoreSubgraph sub = MaxTriangleCoreOf(g, r.kappa, e);
  EXPECT_EQ(sub.k, 5u);
  EXPECT_EQ(sub.vertices.size(), 7u);
  EXPECT_EQ(sub.edges.size(), 21u);
  EXPECT_TRUE(IsClique(g, sub.vertices));
}

TEST(CoreExtractionTest, DisjointCliquesSeparateComponents) {
  Graph builder(20);
  PlantClique(builder, {0, 1, 2, 3, 4});
  PlantClique(builder, {10, 11, 12, 13, 14, 15});
  const CsrGraph g(builder);
  TriangleCoreResult r = ComputeTriangleCores(g);
  auto cores3 = TriangleConnectedCores(g, r.kappa, 3);
  // κ=3 requires 5 vertices minimum; both cliques qualify at k=3.
  ASSERT_EQ(cores3.size(), 2u);
  auto cores4 = TriangleConnectedCores(g, r.kappa, 4);
  ASSERT_EQ(cores4.size(), 1u);
  EXPECT_EQ(cores4[0].vertices.size(), 6u);
  EXPECT_EQ(cores4[0].vertices[0], 10u);
}

TEST(CoreExtractionTest, BridgedCliquesStaySeparateAboveBridgeLevel) {
  // Two 6-cliques joined by a single bridge edge: at k=4 they are distinct
  // triangle-connected cores; the bridge edge has κ=0.
  Graph builder(12);
  PlantClique(builder, {0, 1, 2, 3, 4, 5});
  PlantClique(builder, {6, 7, 8, 9, 10, 11});
  builder.AddEdge(5, 6);
  const CsrGraph g(builder);
  TriangleCoreResult r = ComputeTriangleCores(g);
  EXPECT_EQ(r.kappa[g.FindEdge(5, 6)], 0u);
  auto cores = TriangleConnectedCores(g, r.kappa, 4);
  EXPECT_EQ(cores.size(), 2u);
}

TEST(CoreExtractionTest, VerifyRejectsUndersupportedSubgraph) {
  const CsrGraph g(CompleteGraph(4));
  std::vector<EdgeId> three_edges{g.FindEdge(0, 1), g.FindEdge(1, 2),
                                  g.FindEdge(0, 2)};
  EXPECT_TRUE(VerifyTriangleKCore(g, three_edges, 1));
  EXPECT_FALSE(VerifyTriangleKCore(g, three_edges, 2));
}

TEST(CoreExtractionTest, VerifyRejectsDeadEdges) {
  Graph g = CompleteGraph(4);
  EdgeId e = g.FindEdge(0, 1);
  g.RemoveEdgeById(e);
  EXPECT_FALSE(VerifyTriangleKCore(CsrGraph(g), {e}, 0));
}

TEST(CoreExtractionTest, IsCliqueDetects) {
  Graph builder(5);
  PlantClique(builder, {0, 1, 2, 3});
  const CsrGraph g(builder);
  EXPECT_TRUE(IsClique(g, {0, 1, 2, 3}));
  EXPECT_TRUE(IsClique(g, {0, 1}));
  EXPECT_TRUE(IsClique(g, {}));
  EXPECT_FALSE(IsClique(g, {0, 1, 4}));
}

TEST(CoreExtractionTest, ZeroLevelCoreIsWholeGraph) {
  Rng rng(9);
  const CsrGraph g(GnmRandom(30, 50, rng));
  TriangleCoreResult r = ComputeTriangleCores(g);
  CoreSubgraph sub = TriangleKCore(g, r.kappa, 0);
  EXPECT_EQ(sub.edges.size(), g.NumEdges());
}

}  // namespace
}  // namespace tkc
