#include "tkc/core/analysis_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tkc/baselines/csv.h"
#include "tkc/baselines/dn_graph.h"
#include "tkc/core/core_extraction.h"
#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/connectivity.h"
#include "tkc/graph/kcore.h"
#include "tkc/graph/stats.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"
#include "tkc/viz/density_plot.h"

namespace tkc {
namespace {

// Random graph with dead-edge holes, so EdgeId interchange across the
// representations is exercised on a non-contiguous id space.
Graph MakeTestGraph(uint64_t seed) {
  Rng rng(seed);
  Graph g = PowerLawCluster(80, 4, 0.6, rng);
  std::vector<EdgeId> live = g.EdgeIds();
  for (size_t i = 0; i < live.size() / 10; ++i) {
    EdgeId e = live[rng.NextBounded(live.size())];
    if (g.IsEdgeAlive(e)) g.RemoveEdgeById(e);
  }
  return g;
}

void ExpectSameCores(const TriangleCoreResult& a, const TriangleCoreResult& b,
                     const char* what) {
  EXPECT_EQ(a.kappa, b.kappa) << what;
  EXPECT_EQ(a.order, b.order) << what;
  EXPECT_EQ(a.peel_sequence, b.peel_sequence) << what;
  EXPECT_EQ(a.max_kappa, b.max_kappa) << what;
  EXPECT_EQ(a.triangle_count, b.triangle_count) << what;
}

TEST(AnalysisContextTest, SupportsMatchEveryPath) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Graph g = MakeTestGraph(seed);
    CsrGraph csr(g);
    const auto graph_path = ComputeEdgeSupports(g);
    EXPECT_EQ(ComputeEdgeSupports(csr, 1), graph_path) << "seed=" << seed;
    EXPECT_EQ(ComputeEdgeSupports(csr, 4), graph_path) << "seed=" << seed;
    EXPECT_EQ(csr.ComputeSupports(4), graph_path) << "seed=" << seed;
    AnalysisContext ctx(g, 4);
    EXPECT_EQ(ctx.Supports(), graph_path) << "seed=" << seed;
  }
}

TEST(AnalysisContextTest, DecompositionIdenticalAcrossPathsModesThreads) {
  for (uint64_t seed : {10, 11, 12}) {
    Graph g = MakeTestGraph(seed);
    CsrGraph csr(g);
    for (TriangleStorageMode mode : {TriangleStorageMode::kStoreTriangles,
                                     TriangleStorageMode::kRecomputeTriangles}) {
      const TriangleCoreResult want = ComputeTriangleCores(g, mode);
      ExpectSameCores(ComputeTriangleCores(csr, mode), want, "csr path");
      for (int threads : {1, 4}) {
        AnalysisContext ctx(g, threads);
        ExpectSameCores(ComputeTriangleCores(ctx, mode), want, "context path");
        // A second decomposition from the same context reuses the cache and
        // must still be identical.
        ExpectSameCores(ComputeTriangleCores(ctx, mode), want, "cached");
      }
    }
  }
}

TEST(AnalysisContextTest, KCoreStatsConnectivityMatch) {
  for (uint64_t seed : {20, 21}) {
    Graph g = MakeTestGraph(seed);
    CsrGraph csr(g);

    KCoreResult kg = ComputeKCores(g);
    KCoreResult kc = ComputeKCores(csr);
    EXPECT_EQ(kg.core_of, kc.core_of);
    EXPECT_EQ(kg.max_core, kc.max_core);

    GraphStats sg = ComputeGraphStats(g);
    GraphStats sc = ComputeGraphStats(csr);
    EXPECT_EQ(sg.num_vertices, sc.num_vertices);
    EXPECT_EQ(sg.num_edges, sc.num_edges);
    EXPECT_EQ(sg.num_triangles, sc.num_triangles);
    EXPECT_EQ(sg.max_degree, sc.max_degree);
    EXPECT_DOUBLE_EQ(sg.global_clustering, sc.global_clustering);
    EXPECT_DOUBLE_EQ(sg.mean_local_clustering, sc.mean_local_clustering);
    EXPECT_EQ(sg.degeneracy, sc.degeneracy);
    EXPECT_EQ(sg.num_components, sc.num_components);
    EXPECT_EQ(DegreeHistogram(g), DegreeHistogram(csr));

    ComponentResult cg = ConnectedComponents(g);
    ComponentResult cc = ConnectedComponents(csr);
    EXPECT_EQ(cg.component_of, cc.component_of);
    EXPECT_EQ(cg.num_components, cc.num_components);
  }
}

TEST(AnalysisContextTest, ExtractionAndHierarchyMatch) {
  Graph g = MakeTestGraph(30);
  CsrGraph csr(g);
  TriangleCoreResult r = ComputeTriangleCores(g);

  EXPECT_TRUE(VerifyTheorem1(g, r.kappa));
  EXPECT_TRUE(VerifyTheorem1(csr, r.kappa));
  for (uint32_t k = 0; k <= r.max_kappa; ++k) {
    CoreSubgraph a = TriangleKCore(g, r.kappa, k);
    CoreSubgraph b = TriangleKCore(csr, r.kappa, k);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.vertices, b.vertices);
    auto cores_g = TriangleConnectedCores(g, r.kappa, k);
    auto cores_c = TriangleConnectedCores(csr, r.kappa, k);
    ASSERT_EQ(cores_g.size(), cores_c.size());
    for (size_t i = 0; i < cores_g.size(); ++i) {
      EXPECT_EQ(cores_g[i].edges, cores_c[i].edges);
      EXPECT_EQ(cores_g[i].vertices, cores_c[i].vertices);
    }
  }
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    if (r.kappa[e] == 0) return;
    CoreSubgraph a = MaxTriangleCoreOf(g, r.kappa, e);
    CoreSubgraph b = MaxTriangleCoreOf(csr, r.kappa, e);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_TRUE(VerifyTriangleKCore(csr, b.edges, b.k));
  });

  CoreHierarchy hg = BuildCoreHierarchy(g, r);
  CoreHierarchy hc = BuildCoreHierarchy(csr, r);
  ASSERT_EQ(hg.nodes.size(), hc.nodes.size());
  EXPECT_EQ(hg.roots, hc.roots);
  EXPECT_EQ(hg.leaf_of_edge_, hc.leaf_of_edge_);
  for (size_t i = 0; i < hg.nodes.size(); ++i) {
    EXPECT_EQ(hg.nodes[i].k, hc.nodes[i].k);
    EXPECT_EQ(hg.nodes[i].parent, hc.nodes[i].parent);
    EXPECT_EQ(hg.nodes[i].children, hc.nodes[i].children);
    EXPECT_EQ(hg.nodes[i].edges, hc.nodes[i].edges);
    EXPECT_EQ(hg.nodes[i].subtree_edges, hc.nodes[i].subtree_edges);
    EXPECT_EQ(hg.nodes[i].subtree_vertices, hc.nodes[i].subtree_vertices);
  }
}

TEST(AnalysisContextTest, BaselinesAndPlotsMatch) {
  Graph g = MakeTestGraph(40);
  CsrGraph csr(g);

  for (int threads : {1, 4}) {
    AnalysisContext ctx(g, threads);
    DnGraphResult tg = TriDn(g);
    DnGraphResult tc = TriDn(ctx);
    EXPECT_EQ(tg.lambda, tc.lambda) << "threads=" << threads;
    EXPECT_EQ(tg.iterations, tc.iterations) << "threads=" << threads;
    EXPECT_EQ(tg.edge_updates, tc.edge_updates) << "threads=" << threads;
    DnGraphResult bg = BiTriDn(g);
    DnGraphResult bc = BiTriDn(ctx);
    EXPECT_EQ(bg.lambda, bc.lambda) << "threads=" << threads;
    EXPECT_EQ(bg.iterations, bc.iterations) << "threads=" << threads;
    EXPECT_EQ(bg.edge_updates, bc.edge_updates) << "threads=" << threads;
  }

  CsvResult cg = ComputeCsv(g);
  CsvResult cc = ComputeCsv(csr);
  EXPECT_EQ(cg.co_clique_size, cc.co_clique_size);
  EXPECT_EQ(cg.search_nodes, cc.search_nodes);
  EXPECT_EQ(cg.estimated_edges, cc.estimated_edges);

  TriangleCoreResult r = ComputeTriangleCores(g);
  std::vector<uint32_t> co(g.EdgeCapacity(), 0);
  g.ForEachEdge([&](EdgeId e, const Edge&) { co[e] = r.kappa[e] + 2; });
  for (bool include_zero : {true, false}) {
    DensityPlot pg = BuildDensityPlot(g, co, include_zero);
    DensityPlot pc = BuildDensityPlot(csr, co, include_zero);
    ASSERT_EQ(pg.points.size(), pc.points.size());
    for (size_t i = 0; i < pg.points.size(); ++i) {
      EXPECT_EQ(pg.points[i].vertex, pc.points[i].vertex);
      EXPECT_EQ(pg.points[i].value, pc.points[i].value);
    }
  }
}

TEST(AnalysisContextTest, SupportsComputedAtMostOncePerContext) {
  Graph g = MakeTestGraph(50);
  auto& counter = obs::MetricsRegistry::Global().GetCounter(
      "analysis.support_computations");
  counter.Reset();

  AnalysisContext ctx(g, 2);
  EXPECT_EQ(counter.Value(), 0u);  // construction does not compute

  // Every consumer below needs supports; the kernel must run exactly once.
  ctx.Supports();
  ctx.TriangleCount();
  ctx.MaxSupport();
  ComputeTriangleCores(ctx, TriangleStorageMode::kStoreTriangles);
  ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
  TriDn(ctx, 2);
  BiTriDn(ctx, 2);
  EXPECT_EQ(counter.Value(), 1u);

  // A fresh context recomputes (once).
  AnalysisContext ctx2(g, 1);
  ctx2.Supports();
  EXPECT_EQ(counter.Value(), 2u);
}

// Asked for first on a fresh context, the index build is the one triangle
// enumeration: it also fills the support cache and its totals.
TEST(AnalysisContextTest, TriangleIndexBuiltOnceAndComplete) {
  Graph g = MakeTestGraph(60);
  const uint64_t triangles = CountTriangles(g);
  const std::vector<uint32_t> supports = ComputeEdgeSupports(g);
  auto& registry = obs::MetricsRegistry::Global();
  for (int threads : {1, 4}) {
    registry.Reset();
    AnalysisContext ctx(g, threads);
    EXPECT_EQ(registry.GetCounter("analysis.triangle_index_builds").Value(),
              0u);  // construction does not build
    const TrianglePartnerIndex& index = ctx.TriangleIndex();
    ctx.TriangleIndex();
    EXPECT_EQ(ctx.Supports(), supports);
    EXPECT_EQ(index.Supports(), supports);
    EXPECT_EQ(ctx.TriangleCount(), triangles);
    EXPECT_EQ(ctx.MaxSupport(),
              *std::max_element(supports.begin(), supports.end()));
    ComputeTriangleCores(ctx, TriangleStorageMode::kStoreTriangles);
    ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
    EXPECT_EQ(registry.GetCounter("analysis.triangle_index_builds").Value(),
              1u);
    EXPECT_EQ(registry.GetCounter("analysis.support_computations").Value(),
              1u);
    EXPECT_EQ(registry.GetCounter("triangle.triangles_found").Value(),
              triangles);
    EXPECT_EQ(static_cast<uint64_t>(index.NumEntries()), 3 * triangles);
    EXPECT_EQ(registry.GetGauge("mem.triangle_index_bytes").Value(),
              static_cast<double>(index.Bytes()));
  }
}

TEST(AnalysisContextTest, AdoptsExistingSnapshot) {
  Graph g = MakeTestGraph(70);
  CsrGraph csr(g);
  AnalysisContext ctx(csr, 1);
  EXPECT_EQ(ctx.csr().NumEdges(), g.NumEdges());
  EXPECT_EQ(ctx.Supports(), ComputeEdgeSupports(g));
}

}  // namespace
}  // namespace tkc
