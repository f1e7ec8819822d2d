#include "tkc/graph/triangle.h"

#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/gen/generators.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

// O(n^3) reference count.
uint64_t BruteTriangleCount(const Graph& g) {
  uint64_t count = 0;
  const VertexId n = g.NumVertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) ++count;
      }
    }
  }
  return count;
}

TEST(TriangleTest, EmptyAndTriangleFree) {
  EXPECT_EQ(CountTriangles(CsrGraph(Graph())), 0u);
  EXPECT_EQ(CountTriangles(CsrGraph(PathGraph(10))), 0u);
  EXPECT_EQ(CountTriangles(CsrGraph(CycleGraph(8))), 0u);
  EXPECT_EQ(CountTriangles(CsrGraph(StarGraph(6))), 0u);
}

TEST(TriangleTest, SingleTriangle) {
  const CsrGraph g(CompleteGraph(3));
  EXPECT_EQ(CountTriangles(g), 1u);
  auto support = ComputeEdgeSupports(g);
  g.ForEachEdge([&](EdgeId e, const Edge&) { EXPECT_EQ(support[e], 1u); });
}

TEST(TriangleTest, CompleteGraphCount) {
  // K_n has C(n,3) triangles; every edge supports n-2 of them.
  for (VertexId n : {4, 5, 6, 7}) {
    const CsrGraph g(CompleteGraph(n));
    uint64_t expect = static_cast<uint64_t>(n) * (n - 1) * (n - 2) / 6;
    EXPECT_EQ(CountTriangles(g), expect) << "n=" << n;
    auto support = ComputeEdgeSupports(g);
    g.ForEachEdge([&](EdgeId e, const Edge&) {
      EXPECT_EQ(support[e], n - 2u);
    });
  }
}

TEST(TriangleTest, EnumerationIsUniqueAndOrdered) {
  Rng rng(101);
  Graph g = ErdosRenyi(40, 0.2, rng);
  std::set<std::tuple<VertexId, VertexId, VertexId>> seen;
  ForEachTriangle(g, [&](const Triangle& t) {
    EXPECT_LT(t.a, t.b);
    EXPECT_LT(t.b, t.c);
    EXPECT_TRUE(seen.emplace(t.a, t.b, t.c).second) << "duplicate triangle";
    // Edge ids must match the named vertex pairs.
    EXPECT_EQ(g.FindEdge(t.a, t.b), t.ab);
    EXPECT_EQ(g.FindEdge(t.a, t.c), t.ac);
    EXPECT_EQ(g.FindEdge(t.b, t.c), t.bc);
  });
  EXPECT_EQ(seen.size(), BruteTriangleCount(g));
}

TEST(TriangleTest, CountMatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Rng rng(seed);
    Graph g = ErdosRenyi(30, 0.25, rng);
    EXPECT_EQ(CountTriangles(CsrGraph(g)), BruteTriangleCount(g))
        << "seed=" << seed;
  }
}

TEST(TriangleTest, SupportsMatchPerEdgeCommonNeighbors) {
  Rng rng(7);
  Graph g = PowerLawCluster(120, 3, 0.6, rng);
  auto support = ComputeEdgeSupports(CsrGraph(g));
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    EXPECT_EQ(support[e], g.CountCommonNeighbors(edge.u, edge.v));
  });
}

TEST(TriangleTest, ForEachTriangleOnEdge) {
  Graph g = CompleteGraph(5);
  EdgeId e = g.FindEdge(1, 3);
  std::set<VertexId> apexes;
  ForEachTriangleOnEdge(g, e, [&](VertexId w, EdgeId e1, EdgeId e2) {
    apexes.insert(w);
    EXPECT_TRUE(g.IsEdgeAlive(e1));
    EXPECT_TRUE(g.IsEdgeAlive(e2));
  });
  EXPECT_EQ(apexes, (std::set<VertexId>{0, 2, 4}));
}

TEST(TriangleTest, SupportsRespectDeletedEdges) {
  Graph g = CompleteGraph(4);
  g.RemoveEdge(0, 1);
  const CsrGraph csr(g);
  auto support = ComputeEdgeSupports(csr);
  // K4 minus one edge: the opposite edge (2,3) keeps 2 triangles... no —
  // triangles through {0,1} are gone; (2,3) supports only via apex 0 and 1.
  EXPECT_EQ(CountTriangles(csr), 2u);
  EXPECT_EQ(support[g.FindEdge(2, 3)], 2u);
  EXPECT_EQ(support[g.FindEdge(0, 2)], 1u);
}

TEST(TriangleTest, StatsAggregate) {
  TriangleStats stats = ComputeTriangleStats(CsrGraph(CompleteGraph(6)));
  EXPECT_EQ(stats.triangle_count, 20u);
  EXPECT_EQ(stats.max_edge_support, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_edge_support, 4.0);
}

TEST(TriangleTest, ListTriangles) {
  auto tris = ListTriangles(CsrGraph(CompleteGraph(4)));
  EXPECT_EQ(tris.size(), 4u);
}

TEST(TriangleTest, OrientedKernelMatchesFullScan) {
  // The oriented hybrid kernel and the full-adjacency reference must agree
  // value-for-value, serial and sharded, including across dead-id holes.
  for (uint64_t seed : {11, 12, 13}) {
    Rng rng(seed);
    Graph g = PowerLawCluster(150, 4, 0.5, rng);
    auto live = g.EdgeIds();
    for (size_t i = 0; i < live.size(); i += 9) g.RemoveEdgeById(live[i]);
    CsrGraph csr(g);
    const auto full = ComputeEdgeSupportsFullScan(csr);
    EXPECT_EQ(ComputeEdgeSupports(csr, 1), full) << "seed=" << seed;
    EXPECT_EQ(ComputeEdgeSupports(csr, 4), full) << "seed=" << seed;
    EXPECT_EQ(CountTriangles(csr, 4), BruteTriangleCount(g))
        << "seed=" << seed;
  }
}

TEST(TriangleTest, GallopPathEngagesOnSkewedOutLists) {
  // K40 gives its lowest-rank member an out-list of 39; a degree-2 pendant
  // vertex attached to two clique members has an out-list of 2, so the
  // pendant edges intersect at a 39:2 skew — past the gallop cutoff.
  Graph g = CompleteGraph(40);
  const VertexId x = g.AddVertex();
  g.AddEdge(x, 0);
  g.AddEdge(x, 1);
  auto& registry = obs::MetricsRegistry::Global();
  auto& gallop = registry.GetCounter("triangle.gallop_probes");
  auto& wedges = registry.GetCounter("triangle.wedges_examined");
  auto& merges = registry.GetCounter("triangle.merge_steps");
  const uint64_t gallop_before = gallop.Value();
  const uint64_t wedges_before = wedges.Value();
  const uint64_t merges_before = merges.Value();
  CsrGraph csr(g);
  auto support = ComputeEdgeSupports(csr, 1);
  EXPECT_GT(gallop.Value(), gallop_before);
  // wedges_examined reports the actual work: merge steps + gallop probes.
  EXPECT_EQ(wedges.Value() - wedges_before,
            (merges.Value() - merges_before) +
                (gallop.Value() - gallop_before));
  // And the skewed path still gets the values right.
  EXPECT_EQ(support, ComputeEdgeSupportsFullScan(csr));
  EXPECT_EQ(support[g.FindEdge(x, 0)], 1u);
}

}  // namespace
}  // namespace tkc
