// Batched vs per-event ingest through the versioned engine (TkcEngine on
// the DeltaCsr overlay), against the cost a snapshot-rebuild system pays:
// a full Algorithm-1 recompute per refresh.
//
// One mixed event stream (>= 10k events at size-factor 1) is replayed at
// batch sizes 1 / 16 / 256; each run streams the identical events and ends
// in an identical decomposition (cross-checked by endpoints, exit 3 on any
// mismatch). Expected shape: batching amortizes the coalescer and the
// shared removal pump (inserts take one k-order walk each at any batch
// size), so batch=16/256 beat batch=1 on wall clock while staying
// bit-identical — and every mode beats scratch recompute per refresh by
// orders of magnitude.

#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.h"
#include "tkc/core/triangle_core.h"
#include "tkc/engine/engine.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/edge_event.h"
#include "tkc/util/random.h"

namespace tkc::bench {
namespace {

struct ModeResult {
  std::string name;
  size_t batch_size = 0;  // 0 = scratch recompute
  double seconds = 0;
  double events_per_sec = 0;
  size_t compactions = 0;
  uint64_t candidate_edges = 0;
};

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("replay_batches", cfg);

  const VertexId n =
      std::max<VertexId>(500, static_cast<VertexId>(8000 * cfg.size_factor));
  const size_t num_events =
      std::max<size_t>(600, static_cast<size_t>(12000 * cfg.size_factor));
  Rng rng(cfg.seed);
  Graph base = PowerLawCluster(n, 6, 0.4, rng);
  PrintGraphSummary("replay-base", base);

  // One shared mixed stream (inserts biased so the graph grows): removals
  // always target live edges, per the shadow.
  Graph shadow = base;
  std::vector<EdgeEvent> events;
  events.reserve(num_events);
  while (events.size() < num_events) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    const bool present = shadow.HasEdge(u, v);
    if (!present && rng.NextBool(0.65)) {
      events.push_back({EdgeEvent::Kind::kInsert, u, v});
      shadow.AddEdge(u, v);
    } else if (present && !rng.NextBool(0.65)) {
      events.push_back({EdgeEvent::Kind::kRemove, u, v});
      shadow.RemoveEdge(u, v);
    }
  }
  std::printf("events=%zu (final |E|=%zu)\n\n", events.size(),
              shadow.NumEdges());

  // Scratch baseline: what one refresh costs without incremental
  // maintenance (a rebuild-per-refresh system pays this per batch).
  ModeResult scratch;
  scratch.name = "scratch_recompute";
  {
    Timer t;
    TriangleCoreResult fresh = ComputeTriangleCores(shadow);
    scratch.seconds = t.Seconds();
    scratch.events_per_sec =
        scratch.seconds > 0 ? events.size() / scratch.seconds : 0;
    std::printf("scratch recompute of final graph: %.3fs (max_kappa=%u)\n\n",
                scratch.seconds, fresh.max_kappa);
  }

  const size_t batch_sizes[] = {1, 16, 256};
  std::vector<ModeResult> results;
  std::vector<engine::EngineSnapshot> finals;
  for (size_t batch_size : batch_sizes) {
    engine::TkcEngine eng(base);  // init decomposition not timed
    Timer t;
    for (size_t off = 0; off < events.size(); off += batch_size) {
      const size_t count = std::min(batch_size, events.size() - off);
      eng.ApplyBatch(std::span<const EdgeEvent>(events.data() + off, count));
    }
    engine::EngineSnapshot snap = eng.Snapshot();
    ModeResult r;
    r.seconds = t.Seconds();
    r.name = batch_size == 1 ? "per_event"
                             : "batch" + std::to_string(batch_size);
    r.batch_size = batch_size;
    r.events_per_sec = r.seconds > 0 ? events.size() / r.seconds : 0;
    r.compactions = eng.compactions();
    r.candidate_edges = eng.total_stats().candidate_edges;
    results.push_back(r);
    finals.push_back(std::move(snap));
  }

  // Every mode must land on the identical decomposition (κ by endpoints —
  // coalescing may assign different ids to re-inserted edges).
  int code = 0;
  const engine::EngineSnapshot& ref = finals.front();
  for (size_t i = 1; i < finals.size(); ++i) {
    const engine::EngineSnapshot& other = finals[i];
    if (ref.max_kappa != other.max_kappa ||
        ref.context->csr().NumEdges() != other.context->csr().NumEdges()) {
      std::fprintf(stderr, "FAIL: mode %s diverged structurally\n",
                   results[i].name.c_str());
      code = 3;
      continue;
    }
    ref.context->csr().ForEachEdge([&](EdgeId e, const Edge& edge) {
      EdgeId o = other.context->csr().FindEdge(edge.u, edge.v);
      if (o == kInvalidEdge || (*ref.kappa)[e] != (*other.kappa)[o]) {
        std::fprintf(stderr, "FAIL: mode %s κ mismatch at (%u,%u)\n",
                     results[i].name.c_str(), edge.u, edge.v);
        code = 3;
      }
    });
  }

  const double per_event_s = results.front().seconds;
  TablePrinter table({18, 10, 12, 14, 12, 12, 14});
  table.Row({"mode", "batch", "seconds", "events/sec", "speedup",
             "compactions", "candidates"});
  table.Rule();
  auto emit = [&](const ModeResult& r) {
    const double speedup = r.seconds > 0 ? per_event_s / r.seconds : 0;
    table.Row({r.name, r.batch_size == 0 ? "-" : FmtCount(r.batch_size),
               Fmt(r.seconds), Fmt(r.events_per_sec, 0),
               r.batch_size == 0 ? "-" : Fmt(speedup, 2) + "x",
               r.batch_size == 0 ? "-" : FmtCount(r.compactions),
               r.batch_size == 0 ? "-" : FmtCount(r.candidate_edges)});
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("mode", r.name)
        .Set("batch_size", r.batch_size)
        .Set("seconds", r.seconds)
        .Set("events_per_sec", r.events_per_sec)
        .Set("speedup_vs_per_event", r.batch_size == 0 ? 0.0 : speedup)
        .Set("compactions", r.compactions)
        .Set("candidate_edges", r.candidate_edges);
    report.AddRow(std::move(row));
  };
  for (const ModeResult& r : results) emit(r);
  emit(scratch);
  std::printf("(scratch row = ONE full recompute; a rebuild-per-refresh "
              "system pays it per batch)\n");

  report.Note("events", static_cast<uint64_t>(events.size()));
  report.Note("final_edges", static_cast<uint64_t>(shadow.NumEdges()));
  report.Note("scratch_recompute_seconds", scratch.seconds);
  report.Note("kappa_consistent", code == 0);
  return report.Finish(code);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
