#include "tkc/core/analysis_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tkc/baselines/dn_graph.h"
#include "tkc/core/core_extraction.h"
#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"
#include "tkc/verify/nesting.h"

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
    const auto full_scan = ComputeEdgeSupportsFullScan(csr);
    EXPECT_EQ(ComputeEdgeSupports(csr, 1), full_scan) << "seed=" << seed;
    EXPECT_EQ(ComputeEdgeSupports(csr, 4), full_scan) << "seed=" << seed;
    AnalysisContext ctx(g, 4);
    EXPECT_EQ(ctx.Supports(), full_scan) << "seed=" << seed;
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

// The extraction and hierarchy analytics on a snapshot whose id space has
// dead-edge holes: Theorem 1 holds, every κ >= k subgraph is exactly the
// κ >= k edges, each maximum core certifies, and the hierarchy nests.
TEST(AnalysisContextTest, ExtractionAndHierarchyOnHoleyIds) {
  Graph g = MakeTestGraph(30);
  CsrGraph csr(g);
  TriangleCoreResult r = ComputeTriangleCores(csr);

  EXPECT_TRUE(VerifyTheorem1(csr, r.kappa));
  for (uint32_t k = 0; k <= r.max_kappa; ++k) {
    std::vector<EdgeId> want;
    csr.ForEachEdge([&](EdgeId e, const Edge&) {
      if (r.kappa[e] >= k) want.push_back(e);
    });
    EXPECT_EQ(TriangleKCore(csr, r.kappa, k).edges, want) << "k=" << k;
  }
  csr.ForEachEdge([&](EdgeId e, const Edge&) {
    if (r.kappa[e] == 0) return;
    CoreSubgraph core = MaxTriangleCoreOf(csr, r.kappa, e);
    EXPECT_TRUE(VerifyTriangleKCore(csr, core.edges, core.k));
  });

  CoreHierarchy h = BuildCoreHierarchy(csr, r);
  EXPECT_TRUE(verify::CheckHierarchyNesting(h, csr, r).passed);
}

// The DN-Graph baselines fan their passes out over ctx.threads() workers;
// the result is the same at every thread count and converges to κ.
TEST(AnalysisContextTest, BaselinesIdenticalAcrossThreads) {
  Graph g = MakeTestGraph(40);
  const auto csr = std::make_shared<const CsrGraph>(g);
  const TriangleCoreResult r = ComputeTriangleCores(*csr);
  const AnalysisContext serial(csr, 1);
  const DnGraphResult tri_1 = TriDn(serial);
  const DnGraphResult bi_1 = BiTriDn(serial);
  EXPECT_EQ(tri_1.lambda, r.kappa);
  EXPECT_EQ(bi_1.lambda, r.kappa);

  const AnalysisContext ctx(csr, 4);
  DnGraphResult tc = TriDn(ctx);
  EXPECT_EQ(tc.lambda, tri_1.lambda);
  EXPECT_EQ(tc.iterations, tri_1.iterations);
  EXPECT_EQ(tc.edge_updates, tri_1.edge_updates);
  DnGraphResult bc = BiTriDn(ctx);
  EXPECT_EQ(bc.lambda, bi_1.lambda);
  EXPECT_EQ(bc.iterations, bi_1.iterations);
  EXPECT_EQ(bc.edge_updates, bi_1.edge_updates);
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
  const std::vector<uint32_t> supports =
      ComputeEdgeSupportsFullScan(CsrGraph(g));
  uint64_t triangles = 0;
  ForEachTriangle(g, [&](const Triangle&) { ++triangles; });
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
  EXPECT_EQ(ctx.Supports(), ComputeEdgeSupportsFullScan(csr));
}

}  // namespace
}  // namespace tkc
