// The one index peel, with the index build at the context's thread
// count, against the recompute-mode peel on adversarial shapes: κ must be
// bit-identical at every thread count, the result must be identical
// *across* thread counts, and the returned order must itself be a valid
// peel.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/analysis_context.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/parallel_peel.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/random.h"
#include "tkc/verify/certificate.h"

namespace tkc {
namespace {

// The store-mode peel over a context that builds its index at `threads`.
TriangleCoreResult PeelAt(const std::shared_ptr<const CsrGraph>& csr,
                          int threads) {
  return ComputeTriangleCores(AnalysisContext(csr, threads));
}

// κ from the index peel must equal the recompute-mode peel's for every
// thread count, the result must be internally consistent, and it must not
// depend on the thread count.
void ExpectMatchesSerial(const Graph& g, const char* where) {
  const auto csr = std::make_shared<const CsrGraph>(g);
  const TriangleCoreResult serial =
      ComputeTriangleCores(*csr, TriangleStorageMode::kRecomputeTriangles);
  const TriangleCoreResult one = PeelAt(csr, 1);
  for (int threads : {1, 2, 4, 7}) {
    const TriangleCoreResult par = PeelAt(csr, threads);
    EXPECT_EQ(par.order, one.order) << where << " threads=" << threads;
    EXPECT_EQ(par.peel_sequence, one.peel_sequence) << where;
    ASSERT_EQ(par.kappa.size(), serial.kappa.size()) << where;
    g.ForEachEdge([&](EdgeId e, const Edge& edge) {
      ASSERT_EQ(par.kappa[e], serial.kappa[e])
          << where << " threads=" << threads << " edge (" << edge.u << ","
          << edge.v << ")";
    });
    EXPECT_EQ(par.max_kappa, serial.max_kappa) << where;
    EXPECT_EQ(par.triangle_count, serial.triangle_count) << where;
    EXPECT_EQ(par.peel_sequence.size(), g.NumEdges()) << where;
    // order is the inverse of peel_sequence.
    for (size_t i = 0; i < par.peel_sequence.size(); ++i) {
      EXPECT_EQ(par.order[par.peel_sequence[i]], i) << where;
    }
    // κ is non-decreasing along the peel sequence (levels ascend).
    for (size_t i = 1; i < par.peel_sequence.size(); ++i) {
      EXPECT_LE(par.kappa[par.peel_sequence[i - 1]],
                par.kappa[par.peel_sequence[i]])
          << where;
    }
    verify::VerifyReport cert = verify::CheckKappaCertificate(*csr, par.kappa);
    EXPECT_TRUE(cert.AllPassed())
        << where << ": " << cert.FirstFailure()->name;
  }
}

TEST(ParallelPeelTest, EmptyGraph) {
  Graph g(10);
  ExpectMatchesSerial(g, "empty");
  const TriangleCoreResult r = PeelAt(std::make_shared<const CsrGraph>(g), 4);
  EXPECT_EQ(r.max_kappa, 0u);
  EXPECT_TRUE(r.peel_sequence.empty());
}

TEST(ParallelPeelTest, TriangleFreeGraph) {
  // A cycle plus chords that never close triangles: every edge peels at
  // level 0.
  Graph g(12);
  for (VertexId v = 0; v < 12; ++v) g.AddEdge(v, (v + 1) % 12);
  for (VertexId v = 0; v < 6; ++v) g.AddEdge(v, v + 6);
  ExpectMatchesSerial(g, "triangle_free");
}

TEST(ParallelPeelTest, SingleClique) {
  Graph g(9);
  PlantClique(g, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  ExpectMatchesSerial(g, "clique");
  const TriangleCoreResult r = PeelAt(std::make_shared<const CsrGraph>(g), 4);
  // K9: every edge lies on 7 triangles and peels together, κ = 7.
  g.ForEachEdge(
      [&](EdgeId e, const Edge&) { EXPECT_EQ(r.kappa[e], 7u); });
}

TEST(ParallelPeelTest, StarOfCliques) {
  // Cliques of different sizes all sharing one hub vertex: the hub's
  // adjacency is large and skewed, and levels peel one clique at a time
  // while the hub edges straddle all of them.
  Graph g(1 + 5 + 6 + 7 + 8);
  VertexId next = 1;
  for (int size : {5, 6, 7, 8}) {
    std::vector<VertexId> members = {0};
    for (int i = 0; i < size; ++i) members.push_back(next++);
    PlantClique(g, members);
  }
  ExpectMatchesSerial(g, "star_of_cliques");
}

TEST(ParallelPeelTest, SkewedDegreeGraph) {
  // A hub connected to everything over a sparse random background — the
  // shape that exercises the galloping intersection path and uneven
  // per-edge work across workers.
  Rng rng(4242);
  Graph g = GnmRandom(120, 260, rng);
  for (VertexId v = 1; v < 120; ++v) {
    if (!g.HasEdge(0, v)) g.AddEdge(0, v);
  }
  ExpectMatchesSerial(g, "skewed");
}

TEST(ParallelPeelTest, PowerLawChurnedGraph) {
  // Generated graph with edge-id holes: remove every 7th edge so dead ids
  // pepper the edge space the support and index passes skip over.
  Rng rng(90210);
  Graph g = PowerLawCluster(200, 4, 0.5, rng);
  auto live = g.EdgeIds();
  for (size_t i = 0; i < live.size(); i += 7) g.RemoveEdgeById(live[i]);
  ExpectMatchesSerial(g, "churned");
}

TEST(ParallelPeelTest, OrderIsIdenticalAcrossThreadCounts) {
  Rng rng(777);
  const Graph g = PowerLawCluster(150, 4, 0.6, rng);
  const auto csr = std::make_shared<const CsrGraph>(g);
  const TriangleCoreResult base = PeelAt(csr, 1);
  for (int threads : {2, 3, 8}) {
    const TriangleCoreResult r = PeelAt(csr, threads);
    EXPECT_EQ(r.peel_sequence, base.peel_sequence) << threads << " threads";
    EXPECT_EQ(r.order, base.order) << threads << " threads";
    EXPECT_EQ(r.kappa, base.kappa) << threads << " threads";
  }
}

TEST(ParallelPeelTest, FrontiersAboveTheGrainPeelOnThePool) {
  // ~160k edges whose κ = 1 level alone holds tens of thousands of edges,
  // so its frontiers are far above the peel's 4,096-edge grain and its
  // sub-rounds walk, rank and sort on the pool. Every thread count and
  // both triangle sources must give the same result, the result must be
  // certified, and its order must be a k-order the maintainer accepts
  // (its constructor checks rem(e) <= κ(e) for every edge).
  Rng rng(2028);
  const auto csr =
      std::make_shared<const CsrGraph>(PowerLawCluster(20000, 8, 0.5, rng));
  const TriangleCoreResult base = PeelAt(csr, 1);
  std::vector<size_t> per_level(base.max_kappa + 1, 0);
  csr->ForEachEdge([&](EdgeId e, const Edge&) { ++per_level[base.kappa[e]]; });
  EXPECT_GT(*std::max_element(per_level.begin(), per_level.end()), 20000u);
  for (int threads : {1, 2, 4, 7}) {
    const AnalysisContext ctx(csr, threads);
    const TriangleCoreResult store = ComputeTriangleCores(ctx);
    const TriangleCoreResult recompute =
        ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
    for (const TriangleCoreResult* r : {&store, &recompute}) {
      EXPECT_EQ(r->kappa, base.kappa) << threads << " threads";
      EXPECT_EQ(r->order, base.order) << threads << " threads";
      EXPECT_EQ(r->peel_sequence, base.peel_sequence) << threads << " threads";
      EXPECT_EQ(r->max_kappa, base.max_kappa);
    }
    verify::VerifyReport cert = verify::CheckKappaCertificate(*csr, store.kappa);
    EXPECT_TRUE(cert.AllPassed())
        << threads << " threads: " << cert.FirstFailure()->name;
    const DynamicTriangleCore core(DeltaCsr(csr), store, ctx.TriangleIndex());
    EXPECT_EQ(core.kappa(), base.kappa);
    EXPECT_EQ(core.TriangleCount(), base.triangle_count);
  }
}

TEST(ParallelPeelTest, AnalysisContextOverloadUsesCachedSupports) {
  Rng rng(31);
  const Graph g = PowerLawCluster(100, 3, 0.5, rng);
  AnalysisContext ctx(g, 4);
  auto& computations = obs::MetricsRegistry::Global().GetCounter(
      "analysis.support_computations");
  const uint64_t before = computations.Value();
  ctx.Supports();  // force the cache
  const TriangleCoreResult par = ComputeTriangleCoresParallel(ctx);
  const TriangleCoreResult serial = ComputeTriangleCores(ctx);
  EXPECT_EQ(computations.Value(), before + 1);  // computed exactly once
  EXPECT_EQ(par.kappa, serial.kappa);
  EXPECT_EQ(par.triangle_count, serial.triangle_count);
}

}  // namespace
}  // namespace tkc
