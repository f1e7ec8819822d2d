#include "tkc/gen/generators.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "tkc/graph/connectivity.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(GeneratorsTest, ErdosRenyiDensity) {
  Rng rng(1);
  Graph g = ErdosRenyi(200, 0.1, rng);
  double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), expected, expected * 0.25);
}

TEST(GeneratorsTest, ErdosRenyiEdgeCases) {
  Rng rng(2);
  EXPECT_EQ(ErdosRenyi(50, 0.0, rng).NumEdges(), 0u);
  EXPECT_EQ(ErdosRenyi(10, 1.0, rng).NumEdges(), 45u);
}

TEST(GeneratorsTest, ErdosRenyiDeterministic) {
  Rng a(7), b(7);
  Graph ga = ErdosRenyi(60, 0.2, a);
  Graph gb = ErdosRenyi(60, 0.2, b);
  ASSERT_EQ(ga.NumEdges(), gb.NumEdges());
  ga.ForEachEdge([&](EdgeId, const Edge& e) {
    EXPECT_TRUE(gb.HasEdge(e.u, e.v));
  });
}

TEST(GeneratorsTest, GnmExactEdgeCount) {
  Rng rng(3);
  Graph g = GnmRandom(100, 321, rng);
  EXPECT_EQ(g.NumEdges(), 321u);
  EXPECT_EQ(g.NumVertices(), 100u);
}

TEST(GeneratorsTest, BarabasiAlbertShape) {
  Rng rng(4);
  const VertexId n = 300;
  const uint32_t m = 3;
  Graph g = BarabasiAlbert(n, m, rng);
  EXPECT_EQ(g.NumVertices(), n);
  // m(m+1)/2 seed edges + m per subsequent vertex.
  EXPECT_EQ(g.NumEdges(), m * (m + 1) / 2 + (n - m - 1) * m);
  // Scale-free-ish: max degree well above m.
  uint32_t max_deg = 0;
  for (VertexId v = 0; v < n; ++v) max_deg = std::max(max_deg, g.Degree(v));
  EXPECT_GT(max_deg, 3 * m);
  // Attachment keeps the graph connected.
  EXPECT_EQ(ConnectedComponents(CsrGraph(g)).num_components, 1u);
}

TEST(GeneratorsTest, PowerLawClusterHasMoreTrianglesThanBA) {
  Rng rng1(5), rng2(5);
  Graph ba = BarabasiAlbert(400, 3, rng1);
  Graph plc = PowerLawCluster(400, 3, 0.8, rng2);
  EXPECT_GT(CountTriangles(CsrGraph(plc)), CountTriangles(CsrGraph(ba)));
}

TEST(GeneratorsTest, PlantedPartitionCommunities) {
  Rng rng(6);
  std::vector<uint32_t> community;
  Graph g = PlantedPartition(4, 20, 0.6, 0.02, rng, &community);
  ASSERT_EQ(community.size(), 80u);
  EXPECT_EQ(community[0], 0u);
  EXPECT_EQ(community[79], 3u);
  // Intra-community edges should dominate.
  size_t intra = 0, inter = 0;
  g.ForEachEdge([&](EdgeId, const Edge& e) {
    (community[e.u] == community[e.v] ? intra : inter)++;
  });
  EXPECT_GT(intra, 4 * inter);
}

TEST(GeneratorsTest, FixedTopologies) {
  EXPECT_EQ(CompleteGraph(7).NumEdges(), 21u);
  EXPECT_EQ(CycleGraph(9).NumEdges(), 9u);
  EXPECT_EQ(PathGraph(9).NumEdges(), 8u);
  EXPECT_EQ(StarGraph(9).NumEdges(), 9u);
  EXPECT_EQ(StarGraph(9).Degree(0), 9u);
}

TEST(GeneratorsTest, Figure2GraphShape) {
  Graph g = PaperFigure2Graph();
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumEdges(), 8u);
  EXPECT_EQ(CountTriangles(CsrGraph(g)), 5u);
}

TEST(GeneratorsTest, PlantCliqueAddsAllPairs) {
  Graph g(10);
  PlantClique(g, {1, 4, 7, 9});
  EXPECT_EQ(g.NumEdges(), 6u);
  EXPECT_TRUE(g.HasEdge(1, 9));
  // Planting again is idempotent.
  PlantClique(g, {1, 4, 7, 9});
  EXPECT_EQ(g.NumEdges(), 6u);
}

TEST(GeneratorsTest, PlantRandomCliqueMembersDistinct) {
  Rng rng(8);
  Graph g(50);
  auto members = PlantRandomClique(g, 8, rng);
  ASSERT_EQ(members.size(), 8u);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_TRUE(std::adjacent_find(members.begin(), members.end()) ==
              members.end());
  EXPECT_EQ(g.NumEdges(), 28u);
}

}  // namespace
}  // namespace tkc
