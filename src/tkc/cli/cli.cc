#include "tkc/cli/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "tkc/core/analysis_context.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/engine/engine.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/kcore.h"
#include "tkc/graph/stats.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/event_list.h"
#include "tkc/io/graph_cache.h"
#include "tkc/obs/json.h"
#include "tkc/obs/log.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/patterns/patterns.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"
#include "tkc/util/timer.h"
#include "tkc/verify/verify.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/svg.h"

namespace tkc {

namespace {

// Parses all of `text` as a T: no leading '+' or whitespace, no trailing
// characters, and within T's range.
template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// Splits args into positionals and --key=value flags. NumericFlagsValid
// vets every numeric flag before a command reads one.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  int64_t FlagInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : ParseNumber<int64_t>(it->second).value();
  }
  double FlagDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : ParseNumber<double>(it->second).value();
  }
};

ParsedArgs Parse(const std::vector<std::string>& args) {
  ParsedArgs parsed;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        parsed.flags[arg.substr(2)] = "";
      } else {
        parsed.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      parsed.positional.push_back(arg);
    }
  }
  return parsed;
}

// A numeric flag whose value is not a number, has trailing characters or
// does not fit its type (`--threads` feeds an int) is a usage error, and so
// is a value outside its range: a negative count or size would wrap when
// cast to an unsigned, `generate` takes --n and --m as uint32 counts,
// R-MAT's --scale is a vertex-count exponent of at most 30, and --batch and
// --check-every are strides of at least 1. All of this is checked before
// any command reads its graph.
bool NumericFlagsValid(const ParsedArgs& parsed, std::ostream& err) {
  static const std::set<std::string> kInt64Flags = {
      "width", "height", "max-nodes", "check-every", "batch", "query-every",
      "compact-edits", "min-size", "seed", "n", "m", "scale"};
  constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kU32Max = std::numeric_limits<uint32_t>::max();
  static const std::map<std::string, std::pair<int64_t, int64_t>> kRanges = {
      {"threads", {0, kNoMax}},       {"width", {0, kNoMax}},
      {"height", {0, kNoMax}},        {"max-nodes", {0, kNoMax}},
      {"batch", {1, kNoMax}},         {"check-every", {1, kNoMax}},
      {"query-every", {0, kNoMax}},   {"compact-edits", {0, kNoMax}},
      {"min-size", {0, kNoMax}},      {"n", {0, kU32Max}},
      {"m", {0, kU32Max}},            {"scale", {1, 30}}};
  for (const auto& [key, text] : parsed.flags) {
    const char* want = nullptr;
    if (key == "threads" && !ParseNumber<int>(text)) {
      want = "an integer that fits an int";
    } else if (kInt64Flags.count(key) > 0 && !ParseNumber<int64_t>(text)) {
      want = "an integer that fits an int64";
    } else if (key == "p" && !std::isfinite(
                                 ParseNumber<double>(text).value_or(NAN))) {
      want = "a finite number";
    }
    if (want != nullptr) {
      err << "error: --" << key << " must be " << want << " (got '" << text
          << "')\n";
      return false;
    }
    const auto range = kRanges.find(key);
    if (range == kRanges.end()) continue;
    const auto [lo, hi] = range->second;
    const int64_t value = parsed.FlagInt(key, 0);
    if (value < lo || value > hi) {
      err << "error: --" << key << " must be ";
      if (hi == kNoMax) {
        err << ">= " << lo << '\n';
      } else {
        err << "in " << lo << ".." << hi << " (got " << value << ")\n";
      }
      return false;
    }
  }
  return true;
}

// "3,17,42" for the load warning — the recorded malformed line numbers
// (capped upstream at kMaxRecordedMalformedLines).
std::string FormatLineNumbers(const std::vector<uint64_t>& lines,
                              uint64_t total) {
  std::string text;
  for (const uint64_t line : lines) {
    if (!text.empty()) text += ',';
    text += std::to_string(line);
  }
  if (total > lines.size()) text += ",...";
  return text;
}

std::optional<Graph> LoadGraph(const std::string& path, std::ostream& err,
                               int ingest_threads) {
  TKC_SPAN("cli.load_graph");
  EdgeListStats stats;
  auto g = ReadEdgeListFile(path, &stats, ingest_threads);
  if (!g.has_value()) {
    err << "error: cannot read edge list '" << path << "'\n";
    obs::Logger::Global().Error("graph.load_failed", {{"path", path}});
    return g;
  }
  if (stats.Skipped() > 0) {
    obs::Logger::Global().Warn(
        "graph.lines_skipped",
        {{"path", path},
         {"malformed", stats.malformed_lines},
         {"malformed_at_lines",
          FormatLineNumbers(stats.malformed_line_numbers,
                            stats.malformed_lines)},
         {"self_loops", stats.self_loops},
         {"duplicates", stats.duplicate_edges}});
  }
  obs::Logger::Global().Info("graph.loaded",
                             {{"path", path},
                              {"vertices", g->NumVertices()},
                              {"edges", g->NumEdges()}});
  return g;
}

// Parses the edge list and freezes it at --threads. The builder Graph is
// freed under its own span before the snapshot is handed on, so no command
// carries it into its analysis.
std::shared_ptr<const CsrGraph> FreezeEdgeList(const std::string& path,
                                               std::ostream& err) {
  const int threads = ResolveThreads(0);
  std::optional<Graph> g = LoadGraph(path, err, threads);
  if (!g) return nullptr;
  auto csr = std::make_shared<const CsrGraph>(*g, threads);
  {
    TKC_SPAN("cli.release_graph");
    g.reset();
  }
  return csr;
}

bool WriteCacheFile(const CsrGraph& csr, const std::string& path,
                    std::ostream& err) {
  std::string write_error;
  if (!WriteGraphCache(csr, path, &write_error)) {
    err << "error: cannot write graph cache: " << write_error << '\n';
    return false;
  }
  obs::Logger::Global().Info("cache.written", {{"path", path}});
  return true;
}

// The one place a graph-reading subcommand gets its graph: always a frozen
// snapshot, honoring --graph-cache=FILE:
//  * cache file loads → serve the frozen snapshot directly (cache hit);
//  * cache file absent → text ingest and freeze, then write the cache for
//    the next run (cache miss);
//  * cache file present but invalid → hard error with the named reason
//    (exit 2) — never a silent fallback onto a corrupt file.
// Without the flag it is text ingest and freeze. Returns null on error.
std::shared_ptr<const CsrGraph> LoadGraphSource(const ParsedArgs& args,
                                                const std::string& path,
                                                std::ostream& err) {
  const std::string cache_path = args.Flag("graph-cache", "");
  if (!cache_path.empty()) {
    CacheStatus status = CacheStatus::kOk;
    std::string detail;
    auto csr = LoadGraphCache(cache_path, ResolveThreads(0), &status, &detail);
    if (csr.has_value()) {
      obs::Logger::Global().Info("cache.loaded",
                                 {{"path", cache_path},
                                  {"vertices", csr->NumVertices()},
                                  {"edges", csr->NumEdges()}});
      return std::make_shared<const CsrGraph>(std::move(*csr));
    }
    if (status != CacheStatus::kIoError) {
      err << "error: graph cache '" << cache_path
          << "' rejected: " << CacheStatusName(status) << " (" << detail
          << ")\n";
      obs::Logger::Global().Error("cache.load_rejected",
                                  {{"path", cache_path},
                                   {"reason", CacheStatusName(status)}});
      return nullptr;
    }
    obs::Logger::Global().Info("cache.miss", {{"path", cache_path}});
  }
  std::shared_ptr<const CsrGraph> csr = FreezeEdgeList(path, err);
  if (!csr) return nullptr;
  if (!cache_path.empty() && !WriteCacheFile(*csr, cache_path, err)) {
    return nullptr;
  }
  return csr;
}

// Output buffer size at which `decompose` flushes its formatted rows.
constexpr size_t kRowBufferBytes = size_t{1} << 20;

int CmdDecompose(const ParsedArgs& args, std::ostream& out,
                 std::ostream& err) {
  const std::string mode_text = args.Flag("mode", "store");
  if (mode_text != "store" && mode_text != "recompute") {
    err << "error: --mode must be 'store' or 'recompute'\n";
    return 2;
  }
  const TriangleStorageMode mode =
      mode_text == "store" ? TriangleStorageMode::kStoreTriangles
                           : TriangleStorageMode::kRecomputeTriangles;
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  Timer t;
  std::optional<AnalysisContext> ctx(std::in_place, std::move(csr_ptr));
  TriangleCoreResult r = ComputeTriangleCores(*ctx, mode);
  double seconds = t.Seconds();
  const CsrGraph& csr = ctx->csr();
  obs::Logger::Global().Info("decompose.done",
                             {{"edges", csr.NumEdges()},
                              {"triangles", r.triangle_count},
                              {"max_kappa", r.max_kappa},
                              {"peel", mode_text == "store" ? "index"
                                                            : "recompute"},
                              {"seconds", seconds}});
  {
    TKC_SPAN("output");
    out << "# u v kappa co_clique_size\n";
    // Rows are formatted with to_chars into a buffer flushed in ~1 MB
    // writes: the same bytes as `out << ...`, without per-field stream
    // overhead. A row is at most 4 × 10 digits + 4 separators.
    std::vector<char> buf(kRowBufferBytes + 64);
    char* const begin = buf.data();
    char* const limit = begin + kRowBufferBytes;
    char* p = begin;
    auto put = [&p](uint32_t value, char sep) {
      p = std::to_chars(p, p + 10, value).ptr;
      *p++ = sep;
    };
    csr.ForEachEdge([&](EdgeId e, const Edge& edge) {
      put(edge.u, ' ');
      put(edge.v, ' ');
      put(r.kappa[e], ' ');
      put(r.CocliqueSize(e), '\n');
      if (p >= limit) {
        out.write(begin, p - begin);
        p = begin;
      }
    });
    out.write(begin, p - begin);
    out << "# edges=" << csr.NumEdges() << " triangles=" << r.triangle_count
        << " max_kappa=" << r.max_kappa << " seconds=" << seconds << '\n';
  }
  // The context (CSR + triangle index) and κ are freed under their own
  // span, so their teardown is not an unattributed tail of the root.
  {
    TKC_SPAN("cli.release");
    ctx.reset();
    r = TriangleCoreResult{};
  }
  return 0;
}

int CmdKCore(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  const CsrGraph& csr = *csr_ptr;
  KCoreResult r = ComputeKCores(csr);
  out << "# v core\n";
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    out << v << ' ' << r.core_of[v] << '\n';
  }
  out << "# max_core=" << r.max_core << '\n';
  return 0;
}

int CmdStats(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  GraphStats s = ComputeGraphStats(*csr_ptr);
  out << "vertices:               " << s.num_vertices << '\n'
      << "edges:                  " << s.num_edges << '\n'
      << "triangles:              " << s.num_triangles << '\n'
      << "max degree:             " << s.max_degree << '\n'
      << "mean degree:            " << s.mean_degree << '\n'
      << "global clustering:      " << s.global_clustering << '\n'
      << "mean local clustering:  " << s.mean_local_clustering << '\n'
      << "degeneracy (max core):  " << s.degeneracy << '\n'
      << "connected components:   " << s.num_components << '\n';
  return 0;
}

int CmdPlot(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  const AnalysisContext ctx(std::move(csr_ptr));
  TriangleCoreResult r = ComputeTriangleCores(ctx);
  std::vector<uint32_t> co(ctx.csr().EdgeCapacity(), 0);
  ctx.csr().ForEachEdge([&](EdgeId e, const Edge&) { co[e] = r.kappa[e] + 2; });
  DensityPlot plot = BuildDensityPlot(ctx.csr(), co);
  AsciiChartOptions opt;
  opt.width = static_cast<size_t>(args.FlagInt("width", 100));
  opt.height = static_cast<size_t>(args.FlagInt("height", 16));
  out << RenderAsciiChart(plot, opt);
  std::string svg_path = args.Flag("svg", "");
  if (!svg_path.empty()) {
    SvgOptions svg;
    svg.title = args.positional[1] + " — Triangle K-Core density plot";
    if (!WriteTextFile(svg_path, RenderSvg(plot, svg))) {
      err << "error: cannot write '" << svg_path << "'\n";
      return 2;
    }
    out << "wrote " << svg_path << '\n';
  }
  return 0;
}

int CmdHierarchy(const ParsedArgs& args, std::ostream& out,
                 std::ostream& err) {
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  const AnalysisContext ctx(std::move(csr_ptr));
  TriangleCoreResult r = ComputeTriangleCores(ctx);
  CoreHierarchy h = BuildCoreHierarchy(ctx.csr(), r);
  out << HierarchyToString(
      h, static_cast<size_t>(args.FlagInt("max-nodes", 64)));
  out << "# nodes=" << h.nodes.size() << " roots=" << h.roots.size() << '\n';
  return 0;
}

// Tolerant event-log load (io/event_list semantics: junk rows are skipped
// and counted, never fatal), with the same logging shape as LoadGraph.
std::optional<std::vector<EdgeEvent>> LoadEvents(const std::string& path,
                                                 std::ostream& err,
                                                 int ingest_threads,
                                                 EventListStats* stats_out =
                                                     nullptr) {
  EventListStats stats;
  auto events = ReadEventListFile(path, &stats, ingest_threads);
  if (!events.has_value()) {
    err << "error: cannot read events '" << path << "'\n";
    obs::Logger::Global().Error("events.load_failed", {{"path", path}});
    return events;
  }
  if (stats.Skipped() > 0) {
    obs::Logger::Global().Warn(
        "events.lines_skipped",
        {{"path", path},
         {"malformed", stats.malformed_lines},
         {"malformed_at_lines",
          FormatLineNumbers(stats.malformed_line_numbers,
                            stats.malformed_lines)},
         {"self_loops", stats.self_loops}});
  }
  obs::Logger::Global().Info(
      "events.loaded", {{"path", path}, {"events", stats.events_parsed}});
  if (stats_out != nullptr) *stats_out = stats;
  return events;
}

obs::JsonValue UpdateStatsJson(const UpdateStats& s) {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("candidate_edges", s.candidate_edges)
      .Set("promoted_edges", s.promoted_edges)
      .Set("demoted_edges", s.demoted_edges)
      .Set("triangles_scanned", s.triangles_scanned);
  return doc;
}

// Set by the dynamic commands (update/replay) and attached by RunCli to the
// --metrics-out artifact as "update_stats", so the maintenance work of the
// run is in the machine-readable dump, not only the human summary line.
std::optional<obs::JsonValue> g_update_stats_json;  // NOLINT

int CmdUpdate(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  // The maintainer overlays the frozen snapshot zero-copy.
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  auto events = LoadEvents(args.positional[2], err, ResolveThreads(0));
  if (!events) return 2;
  DynamicTriangleCore dyn(DeltaCsr(std::move(csr_ptr)));
  Timer t;
  // One batch: the coalescer elides events whose net effect is nil, and a
  // removed-then-reinserted edge keeps its id (and so its output row).
  const UpdateStats stats = dyn.ApplyBatch(*events).work;
  double update_s = t.Seconds();
  t.Restart();
  // The check runs the O(|E|)-memory recompute peel: it needs κ once, and
  // it then takes a different path from the index peel that seeded `dyn`.
  TriangleCoreResult fresh = ComputeTriangleCores(
      dyn.graph(), TriangleStorageMode::kRecomputeTriangles);
  double recompute_s = t.Seconds();
  bool match = true;
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    match = match && fresh.kappa[e] == dyn.kappa()[e];
  });
  out << "# u v kappa\n";
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge& edge) {
    out << edge.u << ' ' << edge.v << ' ' << dyn.kappa()[e] << '\n';
  });
  out << "# events=" << events->size() << " update_seconds=" << update_s
      << " recompute_seconds=" << recompute_s << ' ' << stats
      << " verified=" << (match ? "yes" : "NO") << '\n';
  g_update_stats_json = UpdateStatsJson(stats);
  if (!match) {
    obs::Logger::Global().Error("update.verify_failed",
                                {{"events", events->size()}});
  }
  return match ? 0 : 3;
}

// `tkc verify`: run every invariant oracle against the graph (and an
// optional event log) and emit a human summary plus, with --json-out, the
// machine-readable tkc.verify.v1 artifact. Exit codes: 0 all invariants
// hold, 3 an invariant failed (counterexample printed), 2 usage/I-O error.
int CmdVerify(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;

  verify::VerifyOptions options;
  options.check_every = static_cast<size_t>(args.FlagInt("check-every", 1));

  const std::string events_path = args.Flag("events", "");
  if (!events_path.empty()) {
    auto events = LoadEvents(events_path, err, ResolveThreads(0));
    if (!events) return 2;
    options.events = std::move(*events);
  }

  Timer t;
  verify::VerifyReport report =
      verify::RunFullVerification(std::move(csr_ptr), options);
  const double seconds = t.Seconds();

  for (const verify::InvariantCheck& check : report.checks()) {
    out << (check.passed ? "PASS" : "FAIL") << "  " << check.name;
    if (!check.detail.empty()) out << "  (" << check.detail << ")";
    out << '\n';
    if (!check.passed && check.counterexample.has_value()) {
      out << "      counterexample: "
          << check.counterexample->ToJson().Dump() << '\n';
    }
  }
  out << "# checks=" << report.checks().size()
      << " passed=" << (report.AllPassed() ? "yes" : "NO")
      << " seconds=" << seconds << '\n';

  const std::string json_out = args.Flag("json-out", "");
  if (!json_out.empty()) {
    obs::JsonValue doc = report.ToJson();
    doc.Set("graph", args.positional[1])
        .Set("events", events_path)
        .Set("seconds", seconds);
    std::ofstream file(json_out);
    file << doc.Dump(2) << '\n';
    if (!file.good()) {
      err << "error: cannot write '" << json_out << "'\n";
      return 2;
    }
    out << "wrote " << json_out << '\n';
  }
  if (!report.AllPassed()) {
    obs::Logger::Global().Error(
        "verify.failed", {{"check", report.FirstFailure()->name}});
  }
  return report.AllPassed() ? 0 : 3;
}

// `tkc replay`: stream an event log through the versioned engine
// (DeltaCsr + batched maintenance + compaction) in --batch=N chunks,
// emitting per-batch latency/work lines and, with --query-every=K, serving
// analytics queries off zero-copy snapshots between batches. Exit codes:
// 0 ok, 3 a --verify check failed, 2 usage/I-O error.
int CmdReplay(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  const std::string events_path = args.Flag("events", "");
  if (events_path.empty()) {
    err << "error: replay requires --events=FILE\n";
    return 2;
  }
  // The frozen snapshot becomes the engine's base, zero-copy.
  auto csr_ptr = LoadGraphSource(args, args.positional[1], err);
  if (!csr_ptr) return 2;
  const int64_t batch_size = args.FlagInt("batch", 64);
  const int64_t query_every = args.FlagInt("query-every", 0);
  const int64_t compact_edits = args.FlagInt("compact-edits", 4096);
  EventListStats estats;
  auto events = LoadEvents(events_path, err, ResolveThreads(0), &estats);
  if (!events) return 2;

  const bool verify = args.flags.count("verify") > 0;
  engine::EngineOptions options;
  options.compaction_min_edits = static_cast<size_t>(compact_edits);
  options.verify_compactions = verify;
  engine::TkcEngine engine(std::move(csr_ptr), options);

  obs::JsonValue batches_json = obs::JsonValue::Array();
  Timer total;
  uint64_t batch_index = 0;
  for (size_t off = 0; off < events->size();
       off += static_cast<size_t>(batch_size)) {
    const size_t count =
        std::min(static_cast<size_t>(batch_size), events->size() - off);
    std::span<const EdgeEvent> chunk(events->data() + off, count);
    Timer t;
    BatchStats stats = engine.ApplyBatch(chunk);
    const double seconds = t.Seconds();
    ++batch_index;
    out << "batch " << batch_index << ": " << stats
        << " epoch=" << engine.epoch() << " seconds=" << seconds << '\n';
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("batch", batch_index)
        .Set("events", stats.events)
        .Set("coalesced", stats.coalesced_events)
        .Set("net_inserts", stats.net_inserts)
        .Set("net_removes", stats.net_removes)
        .Set("levels", stats.levels)
        .Set("candidate_edges", stats.work.candidate_edges)
        .Set("triangles_scanned", stats.work.triangles_scanned)
        .Set("seconds", seconds);
    batches_json.Push(std::move(row));
    if (query_every > 0 &&
        batch_index % static_cast<uint64_t>(query_every) == 0) {
      engine::EngineSnapshot snap = engine.Snapshot();
      out << "query after batch " << batch_index << ": epoch=" << snap.epoch
          << " edges=" << snap.context->csr().NumEdges()
          << " triangles=" << snap.context->TriangleCount()
          << " max_kappa=" << snap.max_kappa << '\n';
    }
  }
  engine.Compact();
  engine::EngineSnapshot final_snap = engine.Snapshot();
  const double total_s = total.Seconds();

  // --verify: the engine's maintained κ and triangle total must match a
  // scratch recompute on an unseeded context over the final frozen
  // snapshot, and every compaction-boundary certificate must have held.
  bool verified = true;
  if (verify) {
    const AnalysisContext recount(final_snap.context->csr_ptr(),
                                  final_snap.context->threads());
    TriangleCoreResult fresh = ComputeTriangleCores(recount);
    const std::vector<uint32_t>& kappa = *final_snap.kappa;
    final_snap.context->csr().ForEachEdge([&](EdgeId e, const Edge&) {
      verified = verified && fresh.kappa[e] == kappa[e];
    });
    const uint64_t maintained = final_snap.context->TriangleCount();
    verified = verified && fresh.triangle_count == maintained &&
               engine.certificates_ok();
    if (!verified) {
      obs::Logger::Global().Error(
          "replay.verify_failed",
          {{"events", events->size()},
           {"epoch", final_snap.epoch},
           {"triangles", maintained},
           {"recounted_triangles", fresh.triangle_count}});
    }
  }

  const UpdateStats& work = engine.total_stats();
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t cache_hits = reg.GetCounter("cache.hits").Value();
  const uint64_t cache_misses = reg.GetCounter("cache.misses").Value();
  const uint64_t cache_checksum_failures =
      reg.GetCounter("cache.checksum_failures").Value();
  out << "# events=" << events->size() << " skipped=" << estats.Skipped()
      << " batches=" << batch_index << " batch_size=" << batch_size
      << " compactions=" << engine.compactions()
      << " epoch=" << final_snap.epoch
      << " edges=" << final_snap.context->csr().NumEdges()
      << " max_kappa=" << final_snap.max_kappa << " seconds=" << total_s
      << " events_per_sec="
      << (total_s > 0 ? static_cast<double>(events->size()) / total_s : 0.0)
      << ' ' << work << " cache_hits=" << cache_hits
      << " cache_misses=" << cache_misses;
  if (verify) out << " verified=" << (verified ? "yes" : "NO");
  out << '\n';
  g_update_stats_json = UpdateStatsJson(work);

  const std::string json_out = args.Flag("json-out", "");
  if (!json_out.empty()) {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema", "tkc.replay.v1")
        .Set("graph", args.positional[1])
        .Set("events_file", events_path)
        .Set("events", events->size())
        .Set("events_skipped", estats.Skipped())
        .Set("batch_size", batch_size)
        .Set("batches", batch_index)
        .Set("compactions", engine.compactions())
        .Set("epoch", final_snap.epoch)
        .Set("edges", final_snap.context->csr().NumEdges())
        .Set("max_kappa", final_snap.max_kappa)
        .Set("seconds", total_s)
        .Set("verified", verify ? (verified ? "yes" : "no") : "skipped")
        .Set("update_stats", UpdateStatsJson(work));
    obs::JsonValue cache_json = obs::JsonValue::Object();
    cache_json.Set("hits", cache_hits)
        .Set("misses", cache_misses)
        .Set("checksum_failures", cache_checksum_failures);
    doc.Set("cache", std::move(cache_json))
        .Set("batch_log", std::move(batches_json));
    std::ofstream file(json_out);
    file << doc.Dump(2) << '\n';
    if (!file.good()) {
      err << "error: cannot write '" << json_out << "'\n";
      return 2;
    }
    out << "wrote " << json_out << '\n';
  }
  return verified ? 0 : 3;
}

int CmdTemplates(const ParsedArgs& args, std::ostream& out,
                 std::ostream& err) {
  auto old_g = LoadGraph(args.positional[1], err, ResolveThreads(0));
  auto new_g = LoadGraph(args.positional[2], err, ResolveThreads(0));
  if (!old_g || !new_g) return 2;
  std::string pattern = args.Flag("pattern", "newform");
  TemplateSpec spec;
  if (pattern == "newform") {
    spec = NewFormSpec();
  } else if (pattern == "bridge") {
    spec = BridgeSpec();
  } else if (pattern == "newjoin") {
    spec = NewJoinSpec();
  } else {
    err << "error: unknown --pattern '" << pattern << "'\n";
    return 2;
  }
  LabeledGraph lg = LabelFromGraphs(*old_g, *new_g);
  TemplateDetectionResult det = DetectTemplateCliques(lg, spec);
  DensityPlot plot = BuildDensityPlot(CsrGraph(lg.graph), det.co_clique_size,
                                      /*include_zero_vertices=*/false);
  auto plateaus = FindPlateaus(
      plot, static_cast<uint32_t>(args.FlagInt("min-size", 3)), 2);
  out << "# pattern=" << spec.name
      << " characteristic=" << det.characteristic_triangles
      << " possible=" << det.possible_triangles
      << " special_edges=" << det.special_edges.size() << '\n';
  for (size_t i = 0; i < plateaus.size(); ++i) {
    out << "plateau " << i + 1 << ": size=" << plateaus[i].value
        << " vertices=";
    for (size_t k = 0; k < plateaus[i].vertices.size(); ++k) {
      out << (k ? "," : "") << plateaus[i].vertices[k];
    }
    out << '\n';
  }
  return 0;
}

int CmdGenerate(const ParsedArgs& args, std::ostream& out,
                std::ostream& err) {
  const std::string model = args.positional[1];
  const std::string out_path = args.Flag("out", "");
  if (out_path.empty()) {
    err << "error: generate requires --out=FILE\n";
    return 2;
  }
  Rng rng(static_cast<uint64_t>(args.FlagInt("seed", 2012)));
  VertexId n = static_cast<VertexId>(args.FlagInt("n", 1000));
  Graph g;
  if (model == "er") {
    g = ErdosRenyi(n, args.FlagDouble("p", 0.01), rng);
  } else if (model == "gnm") {
    g = GnmRandom(n, static_cast<size_t>(args.FlagInt("m", 4 * n)), rng);
  } else if (model == "ba") {
    g = BarabasiAlbert(n, static_cast<uint32_t>(args.FlagInt("m", 3)), rng);
  } else if (model == "plc") {
    g = PowerLawCluster(n, static_cast<uint32_t>(args.FlagInt("m", 3)),
                        args.FlagDouble("p", 0.5), rng);
  } else if (model == "ws") {
    g = WattsStrogatz(n, static_cast<uint32_t>(args.FlagInt("m", 3)),
                      args.FlagDouble("p", 0.1), rng);
  } else if (model == "rmat") {
    g = Rmat(static_cast<uint32_t>(args.FlagInt("scale", 10)),
             static_cast<uint32_t>(args.FlagInt("m", 8)), 0.57, 0.19, 0.19,
             rng);
  } else if (model == "geometric") {
    g = RandomGeometric(n, args.FlagDouble("p", 0.05), rng);
  } else if (model == "collab") {
    g = CollaborationGraph(n, static_cast<size_t>(args.FlagInt("m", n / 2)),
                           2, 5, rng);
  } else {
    err << "error: unknown model '" << model << "'\n";
    return 2;
  }
  if (!WriteEdgeListFile(g, out_path)) {
    err << "error: cannot write '" << out_path << "'\n";
    return 2;
  }
  out << "wrote " << out_path << ": " << g.NumVertices() << " vertices, "
      << g.NumEdges() << " edges\n";
  return 0;
}

// `tkc cache build <edges.txt> --out=FILE` freezes the text edge list into
// a .tkcg binary snapshot; `tkc cache load <FILE>` validates one and prints
// its header — the CLI face of the --graph-cache fast path.
int CmdCache(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  const std::string& verb = args.positional[1];
  if (verb == "build") {
    const std::string out_path = args.Flag("out", "");
    if (out_path.empty()) {
      err << "error: cache build requires --out=FILE\n";
      return 2;
    }
    Timer t;
    auto csr = FreezeEdgeList(args.positional[2], err);
    if (!csr || !WriteCacheFile(*csr, out_path, err)) return 2;
    out << "wrote " << out_path << ": " << csr->NumVertices() << " vertices, "
        << csr->NumEdges() << " edges seconds=" << t.Seconds() << '\n';
    return 0;
  }
  if (verb == "load") {
    CacheStatus status = CacheStatus::kOk;
    std::string detail;
    GraphCacheInfo info;
    Timer t;
    auto csr = LoadGraphCache(args.positional[2], ResolveThreads(0), &status,
                              &detail, &info);
    if (!csr.has_value()) {
      err << "error: graph cache '" << args.positional[2]
          << "' rejected: " << CacheStatusName(status) << " (" << detail
          << ")\n";
      return 2;
    }
    out << "cache " << args.positional[2] << ": version=" << info.version
        << " vertices=" << csr->NumVertices()
        << " edges=" << csr->NumEdges()
        << " payload_bytes=" << info.payload_bytes
        << " seconds=" << t.Seconds() << '\n';
    return 0;
  }
  err << "error: unknown cache subcommand '" << verb
      << "' (expected build|load)\n";
  return 2;
}

void PrintUsage(std::ostream& err) {
  err << "usage: tkc <command> ... [--log-level=L] [--metrics-out=FILE]\n"
         "                         [--trace-out=FILE] [--threads=N]\n"
         "  decompose <edges.txt> [--mode=store|recompute] (default store)\n"
         "            [--graph-cache=FILE]\n"
         "  kcore     <edges.txt> [--graph-cache=FILE]\n"
         "  stats     <edges.txt> [--graph-cache=FILE]\n"
         "  plot      <edges.txt> [--svg=FILE] [--width=N] [--height=N]\n"
         "            [--graph-cache=FILE]\n"
         "  hierarchy <edges.txt> [--max-nodes=N] [--graph-cache=FILE]\n"
         "  update    <edges.txt> <events.txt> [--graph-cache=FILE]\n"
         "  replay    <edges.txt> --events=FILE [--batch=N]\n"
         "            [--query-every=K] [--compact-edits=N] [--verify]\n"
         "            [--json-out=FILE] [--graph-cache=FILE]\n"
         "  verify    <edges.txt> [--events=FILE] [--check-every=N]\n"
         "            [--json-out=FILE] [--graph-cache=FILE]\n"
         "  templates <old.txt> <new.txt> --pattern=newform|bridge|newjoin\n"
         "  generate  <er|gnm|ba|plc|ws|rmat|geometric|collab> --out=FILE\n"
         "            [--n=N] [--m=M] [--p=P] [--seed=S]\n"
         "  cache     build <edges.txt> --out=FILE\n"
         "  cache     load <FILE.tkcg>\n"
         "global flags (any command):\n"
         "  --log-level=error|warn|info|debug   structured logs on stderr\n"
         "  --log-timestamps                    prefix log lines with "
         "monotonic seconds\n"
         "  --metrics-out=FILE                  write metrics + phase-trace "
         "JSON\n"
         "  --trace-out=FILE                    write Chrome-trace timeline "
         "JSON\n"
         "                                      (open in chrome://tracing "
         "or Perfetto)\n"
         "  --threads=N                         worker threads for parsing, "
         "freeze and\n"
         "                                      the parallel kernels (0 = all "
         "hardware\n"
         "                                      threads; 1 = serial; output is "
         "identical\n"
         "                                      at any count)\n"
         "  --graph-cache=FILE                  serve the graph from a "
         ".tkcg binary\n"
         "                                      snapshot; built from the "
         "edge list on\n"
         "                                      first use (see 'tkc "
         "cache')\n";
}

}  // namespace

namespace {

// Flags each subcommand accepts, beyond the global observability flags
// (--log-level, --log-timestamps, --metrics-out, --trace-out, --threads).
// A flag outside this list is a usage error, not a typo to ignore silently.
bool FlagsValid(const std::string& cmd, const ParsedArgs& parsed,
                std::ostream& err) {
  static const std::map<std::string, std::vector<std::string>> kAllowed = {
      {"decompose", {"mode", "graph-cache"}},
      {"kcore", {"graph-cache"}},
      {"stats", {"graph-cache"}},
      {"plot", {"svg", "width", "height", "graph-cache"}},
      {"hierarchy", {"max-nodes", "graph-cache"}},
      {"update", {"graph-cache"}},
      {"replay",
       {"events", "batch", "query-every", "compact-edits", "verify",
        "json-out", "graph-cache"}},
      {"verify", {"events", "check-every", "json-out", "graph-cache"}},
      {"templates", {"pattern", "min-size"}},
      {"generate", {"out", "seed", "n", "m", "p", "scale"}},
      {"cache", {"out"}},
  };
  auto it = kAllowed.find(cmd);
  if (it == kAllowed.end()) return true;  // unknown command: handled later
  for (const auto& [key, value] : parsed.flags) {
    if (key == "log-level" || key == "log-timestamps" ||
        key == "metrics-out" || key == "trace-out" || key == "threads") {
      continue;
    }
    if (std::find(it->second.begin(), it->second.end(), key) ==
        it->second.end()) {
      err << "error: unknown flag '--" << key << "' for '" << cmd << "'\n";
      PrintUsage(err);
      return false;
    }
  }
  return true;
}

int Dispatch(const std::string& cmd, const ParsedArgs& parsed,
             std::ostream& out, std::ostream& err) {
  const auto& pos = parsed.positional;
  if (!FlagsValid(cmd, parsed, err)) return 2;
  auto need = [&](size_t count) {
    if (pos.size() < count) {
      PrintUsage(err);
      return false;
    }
    return true;
  };
  if (cmd == "decompose" && need(2)) return CmdDecompose(parsed, out, err);
  if (cmd == "kcore" && need(2)) return CmdKCore(parsed, out, err);
  if (cmd == "stats" && need(2)) return CmdStats(parsed, out, err);
  if (cmd == "plot" && need(2)) return CmdPlot(parsed, out, err);
  if (cmd == "hierarchy" && need(2)) return CmdHierarchy(parsed, out, err);
  if (cmd == "update" && need(3)) return CmdUpdate(parsed, out, err);
  if (cmd == "replay" && need(2)) return CmdReplay(parsed, out, err);
  if (cmd == "verify" && need(2)) return CmdVerify(parsed, out, err);
  if (cmd == "templates" && need(3)) return CmdTemplates(parsed, out, err);
  if (cmd == "generate" && need(2)) return CmdGenerate(parsed, out, err);
  if (cmd == "cache" && need(3)) return CmdCache(parsed, out, err);
  PrintUsage(err);
  return 2;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  ParsedArgs parsed = Parse(args);
  if (parsed.positional.empty()) {
    PrintUsage(err);
    return 2;
  }

  // Global observability flags, honored by every subcommand. The logger
  // writes to the caller's error stream so embedders and tests capture it.
  obs::Logger& logger = obs::Logger::Global();
  logger.SetSink(&err);
  logger.SetLevel(obs::LogLevel::kWarn);
  // Off unless requested, and reset per invocation so golden-output tests
  // (and embedders) keep byte-stable logs by default.
  logger.SetTimestamps(parsed.flags.count("log-timestamps") > 0);
  const std::string level_text = parsed.Flag("log-level", "");
  if (!level_text.empty()) {
    auto level = obs::ParseLogLevel(level_text);
    if (!level.has_value()) {
      err << "error: unknown --log-level '" << level_text << "'\n";
      return 2;
    }
    logger.SetLevel(*level);
  }
  const std::string metrics_out = parsed.Flag("metrics-out", "");
  const std::string trace_out = parsed.Flag("trace-out", "");

  // Fresh counters and spans per invocation so the artifacts describe
  // exactly this command. The recorder only runs when an artifact will
  // read it: --trace-out exports its timeline and --metrics-out folds its
  // phase tree.
  obs::MetricsRegistry::Global().Reset();
  obs::TimelineRecorder& recorder = obs::TimelineRecorder::Global();
  if (!metrics_out.empty() || !trace_out.empty()) {
    recorder.Start();
  } else {
    recorder.Reset();
  }

  if (!NumericFlagsValid(parsed, err)) return 2;
  // Worker count for ingest and the parallel kernels; set after the
  // registry reset so the tkc.threads gauge survives into the dump.
  // 0 = hardware default.
  const int64_t threads_flag = parsed.FlagInt("threads", 0);
  SetDefaultThreads(threads_flag == 0 ? HardwareThreads()
                                      : static_cast<int>(threads_flag));

  // The cache counters exist in every dump: "no cache activity" is a
  // checkable zero in the tkc.metrics.v1 artifact, not a missing key.
  for (const char* name :
       {"cache.hits", "cache.misses", "cache.checksum_failures"}) {
    obs::MetricsRegistry::Global().GetCounter(name).Add(0);
  }

  const std::string& cmd = parsed.positional[0];
  g_update_stats_json.reset();  // only dynamic commands repopulate it
  int code;
  {
    TKC_SPAN(cmd);
    code = Dispatch(cmd, parsed, out, err);
  }
  recorder.Stop();

  if (!metrics_out.empty()) {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema", "tkc.metrics.v1")
        .Set("command", cmd)
        .Set("exit_code", code)
        .Set("metrics", obs::MetricsRegistry::Global().ToJson())
        .Set("trace", recorder.PhaseTree())
        .Set("dropped_events", recorder.DroppedEvents());
    if (g_update_stats_json.has_value()) {
      doc.Set("update_stats", *g_update_stats_json);
    }
    std::ofstream file(metrics_out);
    file << doc.Dump(2) << '\n';
    if (!file.good()) {
      err << "error: cannot write metrics to '" << metrics_out << "'\n";
      return 2;
    }
    logger.Info("metrics.written", {{"path", metrics_out}});
  }
  if (!trace_out.empty()) {
    if (!obs::WriteTraceArtifact(trace_out, "command", cmd, code)) {
      err << "error: cannot write trace to '" << trace_out << "'\n";
      return 2;
    }
    logger.Info("trace.written", {{"path", trace_out}});
  }
  return code;
}

}  // namespace tkc
