// TkcEngine: the serving layer. Pins the versioning contract (epoch bumps,
// compaction policy), the zero-copy snapshot handoff (shared CSR/κ, cached
// per epoch, triangle counts served from the maintainer, supports computed
// once per epoch), κ correctness against
// scratch recompute after batched ingest, and the compaction-boundary
// certificate plumbing.

#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"
#include "tkc/engine/engine.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/graph.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

using engine::EngineOptions;
using engine::EngineSnapshot;
using engine::TkcEngine;

// Deterministic mixed event stream against a shadow graph so removals
// always target live edges and inserts are fresh.
std::vector<EdgeEvent> MakeEvents(Graph* shadow, Rng* rng, int count,
                                  double insert_bias) {
  std::vector<EdgeEvent> events;
  const VertexId n = shadow->NumVertices();
  while (static_cast<int>(events.size()) < count) {
    VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u == v) continue;
    const bool present = shadow->HasEdge(u, v);
    if (!present && rng->NextBool(insert_bias)) {
      events.push_back({EdgeEvent::Kind::kInsert, u, v});
      shadow->AddEdge(u, v);
    } else if (present && !rng->NextBool(insert_bias)) {
      events.push_back({EdgeEvent::Kind::kRemove, u, v});
      shadow->RemoveEdge(u, v);
    }
  }
  return events;
}

TEST(EngineTest, BatchedIngestMatchesScratchRecompute) {
  Rng rng(2024);
  Graph base = PowerLawCluster(100, 3, 0.5, rng);
  Graph shadow = base;
  std::vector<EdgeEvent> events = MakeEvents(&shadow, &rng, 600, 0.65);

  EngineOptions options;
  options.compaction_edits = 128;  // force several mid-stream epochs
  options.verify_compactions = true;
  TkcEngine engine(base, options);

  for (size_t off = 0; off < events.size(); off += 48) {
    const size_t count = std::min<size_t>(48, events.size() - off);
    engine.ApplyBatch(std::span<const EdgeEvent>(events.data() + off, count));
  }
  EXPECT_GE(engine.compactions(), 2u);
  EXPECT_TRUE(engine.certificates_ok());

  EngineSnapshot snap = engine.Snapshot();
  // The snapshot is at an epoch boundary and describes the shadow graph.
  EXPECT_EQ(snap.context->csr().NumEdges(), shadow.NumEdges());
  TriangleCoreResult fresh = ComputeTriangleCores(*snap.context);
  EXPECT_EQ(fresh.max_kappa, snap.max_kappa);
  snap.context->csr().ForEachEdge([&](EdgeId e, const Edge& edge) {
    ASSERT_EQ((*snap.kappa)[e], fresh.kappa[e])
        << "edge (" << edge.u << "," << edge.v << ")";
  });
}

TEST(EngineTest, SnapshotsAreZeroCopyAndCachedPerEpoch) {
  obs::MetricsRegistry::Global().Reset();
  Rng rng(7);
  Graph base = PowerLawCluster(120, 3, 0.5, rng);
  TkcEngine engine(base);

  EngineSnapshot a = engine.Snapshot();
  EngineSnapshot b = engine.Snapshot();
  // Same epoch → the identical cached context and κ objects, not copies.
  EXPECT_EQ(a.context.get(), b.context.get());
  EXPECT_EQ(a.kappa.get(), b.kappa.get());
  // The context shares the DeltaCsr's base CSR object outright.
  EXPECT_EQ(a.context->csr_ptr().get(), engine.graph().base_ptr().get());

  // The triangle count is the maintainer's total: no support computation.
  // Lazy supports are computed once per epoch no matter how many readers
  // or snapshot handles ask for them.
  auto& support_runs = obs::MetricsRegistry::Global().GetCounter(
      "analysis.support_computations");
  const uint64_t before = support_runs.Value();
  uint64_t t1 = a.context->TriangleCount();
  uint64_t t2 = b.context->TriangleCount();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(support_runs.Value(), before);
  EXPECT_EQ(&a.context->Supports(), &b.context->Supports());
  EXPECT_EQ(support_runs.Value(), before + 1);
}

// The snapshot's triangle count is the maintainer's running total; it
// must equal a recount of the same CSR after mixed churn, whether the
// churn spans an explicit compaction or only the snapshot's own.
TEST(EngineTest, SeededTriangleCountMatchesRecount) {
  Rng rng(31);
  Graph base = PowerLawCluster(150, 4, 0.5, rng);
  Graph shadow = base;
  EngineOptions options;
  options.compaction_edits = 1u << 20;  // only explicit compactions
  TkcEngine engine(base, options);
  auto apply = [&](int count) {
    std::vector<EdgeEvent> events = MakeEvents(&shadow, &rng, count, 0.5);
    for (size_t off = 0; off < events.size(); off += 32) {
      const size_t n = std::min<size_t>(32, events.size() - off);
      engine.ApplyBatch(std::span<const EdgeEvent>(events.data() + off, n));
    }
  };
  auto expect_matches_recount = [&](const char* where) {
    EngineSnapshot snap = engine.Snapshot();
    const AnalysisContext recount(snap.context->csr_ptr());
    EXPECT_EQ(snap.context->TriangleCount(), recount.TriangleCount())
        << where;
    EXPECT_EQ(snap.context->TriangleCount(),
              AnalysisContext(shadow).TriangleCount())
        << where;
    // Supports on the seeded context are checked against the seed.
    EXPECT_EQ(snap.context->Supports(), recount.Supports()) << where;
  };
  apply(300);
  EXPECT_EQ(engine.compactions(), 0u);
  expect_matches_recount("snapshot compaction only");
  apply(200);
  EXPECT_TRUE(engine.Compact());
  apply(200);
  expect_matches_recount("explicit compaction in between");
  EXPECT_EQ(engine.compactions(), 3u);
}

TEST(EngineTest, EpochAdvancesOnlyAtCompaction) {
  Graph base(8);
  base.AddEdge(0, 1);
  base.AddEdge(1, 2);
  base.AddEdge(0, 2);
  EngineOptions options;
  options.compaction_edits = 1u << 30;  // never auto-compact
  TkcEngine engine(base, options);
  EXPECT_EQ(engine.epoch(), 0u);

  std::vector<EdgeEvent> batch = {{EdgeEvent::Kind::kInsert, 3, 4},
                                  {EdgeEvent::Kind::kInsert, 4, 5}};
  engine.ApplyBatch(batch);
  EXPECT_EQ(engine.epoch(), 0u);  // dirty, same epoch
  EXPECT_TRUE(engine.graph().Dirty());

  // Snapshot() forces the pending edits into a new epoch first.
  EngineSnapshot snap = engine.Snapshot();
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(snap.epoch, 1u);
  EXPECT_FALSE(engine.graph().Dirty());

  // Clean view: Compact() declines, epoch and cache stay put.
  EXPECT_FALSE(engine.Compact());
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.Snapshot().context.get(), snap.context.get());

  // New edits invalidate the cache; the next snapshot is a fresh epoch.
  engine.ApplyBatch(std::vector<EdgeEvent>{{EdgeEvent::Kind::kRemove, 3, 4}});
  EngineSnapshot next = engine.Snapshot();
  EXPECT_EQ(next.epoch, 2u);
  EXPECT_NE(next.context.get(), snap.context.get());
}

TEST(EngineTest, OldSnapshotsSurviveLaterMutationAndCompaction) {
  Rng rng(55);
  Graph base = GnmRandom(60, 150, rng);
  Graph shadow = base;
  EngineOptions options;
  options.compaction_edits = 1;  // compact after every batch
  TkcEngine engine(base, options);

  EngineSnapshot old_snap = engine.Snapshot();
  const size_t old_edges = old_snap.context->csr().NumEdges();
  const uint64_t old_triangles = old_snap.context->TriangleCount();

  std::vector<EdgeEvent> events = MakeEvents(&shadow, &rng, 200, 0.7);
  for (size_t off = 0; off < events.size(); off += 25) {
    engine.ApplyBatch(std::span<const EdgeEvent>(events.data() + off, 25));
  }
  ASSERT_GT(engine.compactions(), 0u);

  // The old epoch's snapshot still answers queries about the old graph,
  // even though the engine has rebuilt its base several times since.
  EXPECT_EQ(old_snap.context->csr().NumEdges(), old_edges);
  EXPECT_EQ(old_snap.context->TriangleCount(), old_triangles);
  EXPECT_NE(old_snap.context.get(), engine.Snapshot().context.get());
}

TEST(EngineTest, PerEventAndBatchedEnginesConverge) {
  // Same events through batch=1 and batch=64 engines: identical κ by
  // endpoints on the final snapshot (ids may differ when coalescing elides
  // a remove+reinsert pair, so compare by endpoint pair).
  Rng rng(99);
  Graph base = PowerLawCluster(70, 3, 0.55, rng);
  Graph shadow = base;
  std::vector<EdgeEvent> events = MakeEvents(&shadow, &rng, 400, 0.6);

  TkcEngine one(base);
  TkcEngine big(base);
  for (size_t i = 0; i < events.size(); ++i) {
    one.ApplyBatch(std::span<const EdgeEvent>(events.data() + i, 1));
  }
  for (size_t off = 0; off < events.size(); off += 64) {
    const size_t count = std::min<size_t>(64, events.size() - off);
    big.ApplyBatch(std::span<const EdgeEvent>(events.data() + off, count));
  }
  EngineSnapshot sa = one.Snapshot();
  EngineSnapshot sb = big.Snapshot();
  ASSERT_EQ(sa.context->csr().NumEdges(), sb.context->csr().NumEdges());
  EXPECT_EQ(sa.max_kappa, sb.max_kappa);
  sa.context->csr().ForEachEdge([&](EdgeId e, const Edge& edge) {
    EdgeId other = sb.context->csr().FindEdge(edge.u, edge.v);
    ASSERT_NE(other, kInvalidEdge)
        << "edge (" << edge.u << "," << edge.v << ") missing from batched";
    ASSERT_EQ((*sa.kappa)[e], (*sb.kappa)[other])
        << "edge (" << edge.u << "," << edge.v << ")";
  });
}

}  // namespace
}  // namespace tkc
