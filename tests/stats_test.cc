#include "tkc/graph/stats.h"

#include <gtest/gtest.h>
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(StatsTest, EmptyGraph) {
  Graph g;
  GraphStats s = ComputeGraphStats(CsrGraph(g));
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_edges, 0u);
}

TEST(StatsTest, CompleteGraph) {
  Graph g = CompleteGraph(6);
  GraphStats s = ComputeGraphStats(CsrGraph(g));
  EXPECT_EQ(s.num_edges, 15u);
  EXPECT_EQ(s.num_triangles, 20u);
  EXPECT_EQ(s.max_degree, 5u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 5.0);
  EXPECT_DOUBLE_EQ(s.global_clustering, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_local_clustering, 1.0);
  EXPECT_EQ(s.degeneracy, 5u);
  EXPECT_EQ(s.num_components, 1u);
}

TEST(StatsTest, TriangleFree) {
  Graph g = CycleGraph(8);
  GraphStats s = ComputeGraphStats(CsrGraph(g));
  EXPECT_EQ(s.num_triangles, 0u);
  EXPECT_DOUBLE_EQ(s.global_clustering, 0.0);
  EXPECT_EQ(s.degeneracy, 2u);
}

TEST(StatsTest, LocalClusteringKnownValues) {
  // Triangle plus a pendant on vertex 0: c(0) = 1/3 (one closed of three
  // pairs), c(3) = 0 (degree 1), c(1) = c(2) = 1.
  Graph g(4);
  PlantClique(g, {0, 1, 2});
  g.AddEdge(0, 3);
  const CsrGraph csr(g);
  EXPECT_DOUBLE_EQ(LocalClustering(csr, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(LocalClustering(csr, 1), 1.0);
  EXPECT_DOUBLE_EQ(LocalClustering(csr, 3), 0.0);
}

TEST(StatsTest, DegreeHistogram) {
  Graph g = StarGraph(5);
  auto hist = DegreeHistogram(CsrGraph(g));
  ASSERT_EQ(hist.size(), 6u);
  EXPECT_EQ(hist[1], 5u);
  EXPECT_EQ(hist[5], 1u);
}

TEST(StatsTest, EccentricityPath) {
  Graph g = PathGraph(7);
  const CsrGraph csr(g);
  EXPECT_EQ(Eccentricity(csr, 0, nullptr), 6u);
  EXPECT_EQ(Eccentricity(csr, 3, nullptr), 3u);
  VertexId far = 0;
  Eccentricity(csr, 0, &far);
  EXPECT_EQ(far, 6u);
}

TEST(StatsTest, DiameterPathExact) {
  Graph g = PathGraph(20);
  Rng rng(1);
  const CsrGraph csr(g);
  // Double-sweep is exact on trees.
  EXPECT_EQ(EstimateDiameter(csr, 3, rng), 19u);
}

TEST(StatsTest, DiameterCompleteGraph) {
  Graph g = CompleteGraph(9);
  Rng rng(2);
  EXPECT_EQ(EstimateDiameter(CsrGraph(g), 2, rng), 1u);
}

TEST(StatsTest, SmallWorldHasHighClustering) {
  Rng rng(3);
  Graph ws = WattsStrogatz(300, 4, 0.05, rng);
  Rng rng2(3);
  Graph er = GnmRandom(300, ws.NumEdges(), rng2);
  GraphStats s_ws = ComputeGraphStats(CsrGraph(ws));
  GraphStats s_er = ComputeGraphStats(CsrGraph(er));
  EXPECT_GT(s_ws.mean_local_clustering, 3 * s_er.mean_local_clustering);
}

}  // namespace
}  // namespace tkc
