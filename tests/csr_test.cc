#include "tkc/graph/csr.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(CsrTest, PreservesTopologyAndIds) {
  Rng rng(1);
  Graph g = GnmRandom(60, 140, rng);
  CsrGraph csr(g);
  EXPECT_EQ(csr.NumVertices(), g.NumVertices());
  EXPECT_EQ(csr.NumEdges(), g.NumEdges());
  EXPECT_EQ(csr.EdgeCapacity(), g.EdgeCapacity());
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    EXPECT_TRUE(csr.IsEdgeAlive(e));
    EXPECT_EQ(csr.GetEdge(e), edge);
    EXPECT_EQ(csr.FindEdge(edge.u, edge.v), e);  // same EdgeIds
  });
}

TEST(CsrTest, HandlesDeadEdgeHoles) {
  Graph g = CompleteGraph(5);
  EdgeId dead = g.FindEdge(1, 2);
  g.RemoveEdgeById(dead);
  CsrGraph csr(g);
  EXPECT_FALSE(csr.IsEdgeAlive(dead));
  EXPECT_EQ(csr.FindEdge(1, 2), kInvalidEdge);
  EXPECT_EQ(csr.NumEdges(), 9u);
  EXPECT_EQ(csr.EdgeCapacity(), 10u);
}

TEST(CsrTest, DegreesAndNeighborsSorted) {
  Rng rng(2);
  Graph g = PowerLawCluster(120, 3, 0.5, rng);
  CsrGraph csr(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(csr.Degree(v), g.Degree(v));
    const Neighbor* it = csr.NeighborsBegin(v);
    for (const Neighbor& nb : g.Neighbors(v)) {
      EXPECT_EQ(it->vertex, nb.vertex);
      EXPECT_EQ(it->edge, nb.edge);
      ++it;
    }
    EXPECT_EQ(it, csr.NeighborsEnd(v));
  }
}

TEST(CsrTest, TriangleCountsMatchReferences) {
  for (uint64_t seed : {3, 4, 5}) {
    Rng rng(seed);
    Graph g = ErdosRenyi(70, 0.12, rng);
    CsrGraph csr(g);
    uint64_t listed = 0;
    ForEachTriangle(g, [&](const Triangle&) { ++listed; });
    EXPECT_EQ(CountTriangles(csr), listed);
    EXPECT_EQ(ComputeEdgeSupports(csr), ComputeEdgeSupportsFullScan(csr));
  }
}

TEST(CsrTest, CommonNeighborMerge) {
  Graph g = CompleteGraph(6);
  CsrGraph csr(g);
  int count = 0;
  csr.ForEachCommonNeighbor(0, 1, [&](VertexId, EdgeId, EdgeId) { ++count; });
  EXPECT_EQ(count, 4);
}

TEST(CsrTest, EmptyGraph) {
  Graph g;
  CsrGraph csr(g);
  EXPECT_EQ(csr.NumVertices(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
  EXPECT_EQ(CountTriangles(csr), 0u);
}

TEST(CsrTest, OrientedViewRanksByDegreeThenId) {
  // Star: leaves (degree 1) rank before the hub (degree 4), so every edge
  // points leaf -> hub and the hub's out-list is empty.
  Graph g(5);
  for (VertexId v = 1; v < 5; ++v) g.AddEdge(0, v);
  CsrGraph csr(g);
  EXPECT_EQ(csr.Rank(0), 4u);
  EXPECT_EQ(csr.OutDegree(0), 0u);
  size_t total_out = 0;
  for (VertexId v = 1; v < 5; ++v) {
    EXPECT_EQ(csr.OutDegree(v), 1u);
    EXPECT_EQ(csr.OutNeighborsBegin(v)->vertex, 0u);
    total_out += csr.OutDegree(v);
  }
  EXPECT_EQ(total_out, csr.NumEdges());
}

TEST(CsrTest, OrientedViewPartitionsAdjacency) {
  Rng rng(17);
  Graph g = PowerLawCluster(80, 4, 0.5, rng);
  g.RemoveEdgeById(g.EdgeIds()[3]);  // keep a dead-id hole in play
  CsrGraph csr(g);
  size_t total_out = 0;
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    // Out-list = exactly the higher-rank neighbors, still sorted by id.
    std::vector<Neighbor> expect;
    for (const Neighbor& nb : csr.Neighbors(v)) {
      if (csr.Rank(nb.vertex) > csr.Rank(v)) expect.push_back(nb);
    }
    ASSERT_EQ(csr.OutDegree(v), expect.size());
    size_t i = 0;
    for (const Neighbor& nb : csr.OutNeighbors(v)) {
      EXPECT_EQ(nb.vertex, expect[i].vertex);
      EXPECT_EQ(nb.edge, expect[i].edge);
      ++i;
    }
    total_out += expect.size();
  }
  EXPECT_EQ(total_out, csr.NumEdges());  // each edge oriented exactly once
  csr.ForEachEdge([&](EdgeId e, const Edge& edge) {
    const Edge oe = csr.OrientedEdge(e);
    EXPECT_LT(csr.Rank(oe.u), csr.Rank(oe.v));
    EXPECT_TRUE((oe.u == edge.u && oe.v == edge.v) ||
                (oe.u == edge.v && oe.v == edge.u));
  });
}

}  // namespace
}  // namespace tkc
