// perfbench_layers: the in-process half of the repository benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench_layers gen  --n=N --m=M --seed=S
//                         --events=E --graph=FILE --events-out=FILE
//   perfbench_layers pass --graph=FILE --events=FILE --threads=N
//                         --setup=decompose|replay --setup-seconds=S
//                         --sections=decompose|all|none
//                         [--rows=FILE] [--certificate] [--final]
//                         [--seconds=S] [--batch=B] [--query-every=Q]
//
// `gen` writes the seeded inputs: the graph comes from the same library
// generator and parameters `tkc generate plc --seed=S` uses (so that
// command reproduces the file byte for byte), and the churn stream then
// continues from the same Rng.
//
// `pass` times the set-up step repeatedly for --setup-seconds (untraced),
// runs one untimed pass whose results are checked (against the --rows
// output of `tkc decompose`, the κ-certificate with --certificate, and a
// scratch recompute of the final graph with --final), then repeats the
// traced layer pass for --seconds. The layer pass calls each layer's public
// function in the order CmdDecompose and CmdReplay do and records one span
// around each call. Prints one JSON object on stdout.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tkc/core/analysis_context.h"
#include "tkc/core/parallel_peel.h"
#include "tkc/core/triangle_core.h"
#include "tkc/engine/engine.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"
#include "tkc/graph/intersect_simd.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/event_list.h"
#include "tkc/obs/json.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"
#include "tkc/util/timer.h"
#include "tkc/verify/certificate.h"

namespace {

using tkc::obs::JsonValue;

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  int64_t Int(const std::string& key, int64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::stoll(it->second);
  }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg.substr(2)] = "";
    } else {
      flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Input generation.

uint64_t EdgeKey(tkc::VertexId u, tkc::VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// A churn stream that keeps the edge count steady: each event removes a
// uniformly chosen live edge or inserts a wedge-closing edge (pick a live
// edge u–w, a neighbor v of w, add u–v). Uniform random inserts into a
// sparse graph rarely close a triangle and so skip the promotion path;
// closing wedges exercises promotion and demotion alike.
std::vector<tkc::EdgeEvent> ChurnStream(tkc::Graph g, size_t count,
                                        tkc::Rng& rng) {
  std::vector<tkc::Edge> live;
  std::unordered_map<uint64_t, size_t> slot;
  g.ForEachEdge([&](tkc::EdgeId, const tkc::Edge& e) {
    slot[EdgeKey(e.u, e.v)] = live.size();
    live.push_back(e);
  });
  std::vector<tkc::EdgeEvent> events;
  events.reserve(count);
  while (events.size() < count && !live.empty()) {
    if (rng.NextBool(0.5)) {
      const size_t i = static_cast<size_t>(rng.NextBounded(live.size()));
      const tkc::Edge e = live[i];
      slot[EdgeKey(live.back().u, live.back().v)] = i;
      live[i] = live.back();
      live.pop_back();
      slot.erase(EdgeKey(e.u, e.v));
      g.RemoveEdge(e.u, e.v);
      events.push_back({tkc::EdgeEvent::Kind::kRemove, e.u, e.v});
      continue;
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      const tkc::Edge e = live[rng.NextBounded(live.size())];
      tkc::VertexId u = e.u;
      tkc::VertexId w = e.v;
      if (rng.NextBool(0.5)) std::swap(u, w);
      const auto& around = g.Neighbors(w);
      const tkc::VertexId v = around[rng.NextBounded(around.size())].vertex;
      if (v == u || g.HasEdge(u, v)) continue;
      g.AddEdge(u, v);
      const tkc::Edge added{std::min(u, v), std::max(u, v)};
      slot[EdgeKey(added.u, added.v)] = live.size();
      live.push_back(added);
      events.push_back({tkc::EdgeEvent::Kind::kInsert, added.u, added.v});
      break;
    }
  }
  return events;
}

int CmdGen(const Flags& flags) {
  tkc::Rng rng(static_cast<uint64_t>(flags.Int("seed", 2012)));
  // Same call and defaults as CmdGenerate for plc (p=0.5).
  tkc::Graph g = tkc::PowerLawCluster(
      static_cast<tkc::VertexId>(flags.Int("n", 1000)),
      static_cast<uint32_t>(flags.Int("m", 8)), 0.5, rng);
  const auto events =
      ChurnStream(g, static_cast<size_t>(flags.Int("events", 0)), rng);
  if (!tkc::WriteEdgeListFile(g, flags.Get("graph", "")) ||
      !tkc::WriteEventListFile(events, flags.Get("events-out", ""))) {
    std::cerr << "error: cannot write the generated inputs\n";
    return 2;
  }
  size_t inserts = 0;
  for (const auto& ev : events) {
    inserts += ev.kind == tkc::EdgeEvent::Kind::kInsert ? 1 : 0;
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("vertices", g.NumVertices())
      .Set("edges", g.NumEdges())
      .Set("events", events.size())
      .Set("inserts", inserts)
      .Set("removes", events.size() - inserts);
  std::cout << doc.Dump() << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  int parent = -1;
  double start = 0;  // seconds since the log's epoch
  double end = 0;
  double cpu = 0;  // process CPU seconds (all threads) inside the span
};

class SpanLog {
 public:
  int Open(std::string name, int parent) {
    spans_.push_back(
        {std::move(name), parent, clock_.Seconds(), 0, CpuSeconds()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    spans_[id].end = clock_.Seconds();
    spans_[id].cpu = CpuSeconds() - spans_[id].cpu;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  tkc::Timer clock_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log->Open(std::move(name), parent)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// The layer pass.

struct PassOptions {
  std::string graph_path;
  std::string events_path;
  int threads = 1;
  bool decompose = true;
  bool serial = true;  // decompose again at one thread
  bool replay = true;
  size_t batch = 64;
  uint64_t query_every = 8;
};

// What one pass produced, kept for the checks and the counts.
struct PassResult {
  std::optional<tkc::Graph> graph;
  std::shared_ptr<const tkc::CsrGraph> csr;
  tkc::TriangleCoreResult cores;     // at --threads
  tkc::TriangleCoreResult cores_1t;  // at one thread
  std::vector<tkc::EdgeEvent> events;
  std::shared_ptr<const std::vector<uint32_t>> engine_kappa;
  std::shared_ptr<const tkc::CsrGraph> engine_csr;
  tkc::UpdateStats work;
  uint64_t batches = 0;
  size_t compactions = 0;
  uint32_t engine_max_kappa = 0;
};

// One traced pass. io → graph → core in CmdDecompose's order (at --threads,
// then, with --sections=all, at one thread on a fresh context over the same
// snapshot), then io → engine in CmdReplay's order.
PassResult RunPass(const PassOptions& opt, SpanLog* log) {
  PassResult out;
  ScopedSpan root(log, "pass", -1);
  {
    ScopedSpan s(log, "io.parse", root.id());
    out.graph = tkc::ReadEdgeListFile(opt.graph_path, nullptr, opt.threads);
  }
  if (!out.graph) throw std::runtime_error("cannot read " + opt.graph_path);
  if (opt.decompose) {
    std::optional<tkc::AnalysisContext> ctx;
    {
      ScopedSpan s(log, "graph.freeze", root.id());
      ctx.emplace(*out.graph);
    }
    {
      ScopedSpan s(log, "core.support", root.id());
      ctx->Supports();
    }
    {
      ScopedSpan s(log, "core.peel", root.id());
      out.cores = ctx->threads() > 1 ? tkc::ComputeTriangleCoresParallel(*ctx)
                                     : tkc::ComputeTriangleCores(*ctx);
    }
    out.csr = ctx->csr_ptr();
  }
  if (opt.decompose && opt.serial) {
    tkc::AnalysisContext serial(out.csr, 1);
    {
      ScopedSpan s(log, "core.support_1t", root.id());
      serial.Supports();
    }
    {
      ScopedSpan s(log, "core.peel_1t", root.id());
      out.cores_1t = tkc::ComputeTriangleCores(serial);
    }
  }
  if (!opt.replay) return out;
  {
    ScopedSpan s(log, "io.events_parse", root.id());
    auto events = tkc::ReadEventListFile(opt.events_path, nullptr, opt.threads);
    if (!events) throw std::runtime_error("cannot read " + opt.events_path);
    out.events = std::move(*events);
  }
  std::optional<tkc::engine::TkcEngine> engine;
  {
    ScopedSpan s(log, "engine.init", root.id());
    engine.emplace(*out.graph, tkc::engine::EngineOptions{});
  }
  {
    ScopedSpan replay(log, "engine.replay", root.id());
    for (size_t off = 0; off < out.events.size(); off += opt.batch) {
      const size_t count = std::min(opt.batch, out.events.size() - off);
      {
        ScopedSpan s(log, "engine.apply", replay.id());
        engine->ApplyBatch(
            std::span<const tkc::EdgeEvent>(out.events.data() + off, count));
      }
      ++out.batches;
      if (opt.query_every > 0 && out.batches % opt.query_every == 0) {
        ScopedSpan s(log, "engine.snapshot", replay.id());
        engine->Snapshot().context->TriangleCount();
      }
    }
    {
      ScopedSpan s(log, "engine.compact", replay.id());
      engine->Compact();
    }
    ScopedSpan s(log, "engine.snapshot", replay.id());
    const tkc::engine::EngineSnapshot snap = engine->Snapshot();
    out.engine_kappa = snap.kappa;
    out.engine_csr = snap.context->csr_ptr();
    out.engine_max_kappa = snap.max_kappa;
  }
  out.work = engine->total_stats();
  out.compactions = engine->compactions();
  return out;
}

// ---------------------------------------------------------------------------
// Checks (never inside a span).

// Compares `tkc decompose` rows against the pass's κ: one row per live edge
// in EdgeId order, "u v kappa kappa+2", then the summary line.
std::string CheckRows(const std::string& path, const tkc::CsrGraph& csr,
                      const tkc::TriangleCoreResult& cores) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot read rows file";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const char* p = text.data();
  const char* end = p + text.size();
  auto next_line = [&]() -> std::string_view {
    const char* nl = std::find(p, end, '\n');
    std::string_view line(p, static_cast<size_t>(nl - p));
    p = nl == end ? end : nl + 1;
    return line;
  };
  if (next_line() != "# u v kappa co_clique_size") return "bad header";
  std::string failure;
  uint64_t row = 0;
  csr.ForEachEdge([&](tkc::EdgeId e, const tkc::Edge&) {
    if (!failure.empty()) return;
    ++row;
    const std::string_view line = next_line();
    const tkc::Edge oe = csr.OriginalEdge(e);
    const std::string expected = std::to_string(oe.u) + ' ' +
                                 std::to_string(oe.v) + ' ' +
                                 std::to_string(cores.kappa[e]) + ' ' +
                                 std::to_string(cores.CocliqueSize(e));
    if (line != expected) {
      failure = "row " + std::to_string(row) + " is '" + std::string(line) +
                "', expected '" + expected + "'";
    }
  });
  if (!failure.empty()) return failure;
  const std::string summary = "# edges=" + std::to_string(csr.NumEdges()) +
                              " triangles=" +
                              std::to_string(cores.triangle_count) +
                              " max_kappa=" + std::to_string(cores.max_kappa) +
                              " seconds=";
  if (next_line().substr(0, summary.size()) != summary) return "bad summary";
  return "";
}

// Replays the events on the base graph by plain Graph mutation and
// recomputes κ from scratch. Records the final edge count and max κ (which
// `tkc replay` must also print) and, when the pass ran the engine, checks
// the engine's κ against the recompute edge by edge (by endpoints).
std::string CheckFinalState(const PassResult& r, const PassOptions& opt,
                            bool certificate, JsonValue* facts) {
  std::vector<tkc::EdgeEvent> parsed;
  const std::vector<tkc::EdgeEvent>* events = &r.events;
  if (!opt.replay) {
    auto read = tkc::ReadEventListFile(opt.events_path, nullptr, opt.threads);
    if (!read) return "cannot read " + opt.events_path;
    parsed = std::move(*read);
    events = &parsed;
  }
  tkc::Graph g = *r.graph;
  for (const tkc::EdgeEvent& ev : *events) {
    if (ev.kind == tkc::EdgeEvent::Kind::kInsert) {
      g.AddEdge(ev.u, ev.v);
    } else {
      g.RemoveEdge(ev.u, ev.v);
    }
  }
  const tkc::TriangleCoreResult fresh = tkc::ComputeTriangleCores(g);
  facts->Set("final_edges", g.NumEdges())
      .Set("final_max_kappa", fresh.max_kappa);
  if (!r.engine_csr) return "";
  if (r.engine_csr->NumEdges() != g.NumEdges()) return "engine edge count";
  std::string failure;
  r.engine_csr->ForEachEdge([&](tkc::EdgeId e, const tkc::Edge& edge) {
    const tkc::EdgeId id = g.FindEdge(edge.u, edge.v);
    if (failure.empty() &&
        (id == tkc::kInvalidEdge || fresh.kappa[id] != (*r.engine_kappa)[e])) {
      failure = "engine kappa differs on edge " + std::to_string(edge.u) +
                "-" + std::to_string(edge.v);
    }
  });
  if (failure.empty() && r.engine_max_kappa != fresh.max_kappa) {
    failure = "engine max_kappa";
  }
  if (failure.empty() && certificate &&
      !tkc::verify::CheckKappaCertificate(*r.engine_csr, *r.engine_kappa)
           .AllPassed()) {
    failure = "engine kappa certificate failed";
  }
  return failure;
}

struct CheckOptions {
  std::string rows_path;  // `tkc decompose` rows to compare, if any
  bool certificate = false;
  bool final_state = false;
};

JsonValue RunChecks(const PassResult& r, const PassOptions& opt,
                    const CheckOptions& check) {
  JsonValue failures = JsonValue::Array();
  JsonValue facts = JsonValue::Object();
  if (opt.decompose) {
    if (opt.serial && (r.cores.kappa != r.cores_1t.kappa ||
                       r.cores.triangle_count != r.cores_1t.triangle_count)) {
      failures.Push("kappa differs between --threads and one thread");
    }
    if (check.certificate &&
        !tkc::verify::CheckKappaCertificate(*r.csr, r.cores.kappa)
             .AllPassed()) {
      failures.Push("kappa certificate failed");
    }
    if (!check.rows_path.empty()) {
      const std::string rows = CheckRows(check.rows_path, *r.csr, r.cores);
      if (!rows.empty()) failures.Push("rows: " + rows);
    }
    facts.Set("edges", r.csr->NumEdges())
        .Set("triangles", r.cores.triangle_count)
        .Set("max_kappa", r.cores.max_kappa);
  }
  if (check.final_state) {
    const std::string final_state =
        CheckFinalState(r, opt, check.certificate, &facts);
    if (!final_state.empty()) failures.Push(final_state);
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("failures", std::move(failures)).Set("facts", std::move(facts));
  return doc;
}

JsonValue Counts(const PassResult& r) {
  JsonValue counts = JsonValue::Object();
  if (r.csr) counts.Set("core.triangles", r.cores.triangle_count);
  if (!r.engine_csr) return counts;
  counts.Set("engine.candidate_edges", r.work.candidate_edges)
      .Set("engine.triangles_scanned", r.work.triangles_scanned)
      .Set("engine.promoted_edges", r.work.promoted_edges)
      .Set("engine.demoted_edges", r.work.demoted_edges)
      .Set("engine.compactions", r.compactions);
  return counts;
}

JsonValue SpansJson(const SpanLog& log) {
  JsonValue spans = JsonValue::Array();
  for (const Span& s : log.spans()) {
    JsonValue row = JsonValue::Object();
    row.Set("name", s.name)
        .Set("parent", s.parent)
        .Set("start", s.start)
        .Set("end", s.end)
        .Set("cpu", s.cpu);
    spans.Push(std::move(row));
  }
  return spans;
}

// The set-up step the CLI runs before its first analytic call: parse +
// freeze for decompose; parse graph + events + TkcEngine construction
// (which runs Algorithm 1 once) for replay. Teardown is not timed.
double TimeSetup(const PassOptions& opt, bool replay) {
  tkc::Timer t;
  auto g = tkc::ReadEdgeListFile(opt.graph_path, nullptr, opt.threads);
  if (!g) throw std::runtime_error("cannot read " + opt.graph_path);
  if (!replay) {
    tkc::AnalysisContext ctx(*g);
    return t.Seconds();
  }
  auto events = tkc::ReadEventListFile(opt.events_path, nullptr, opt.threads);
  if (!events) throw std::runtime_error("cannot read " + opt.events_path);
  tkc::engine::TkcEngine engine(*g, tkc::engine::EngineOptions{});
  return t.Seconds();
}

int CmdPass(const Flags& flags) {
  PassOptions opt;
  opt.graph_path = flags.Get("graph", "");
  opt.events_path = flags.Get("events", "");
  opt.threads = static_cast<int>(flags.Int("threads", 1));
  const std::string sections = flags.Get("sections", "all");
  opt.decompose = sections != "none";
  // Only the traced run needs the one-thread spans; end to end, the
  // children at N and at one thread are compared with each other instead.
  opt.serial = sections == "all";
  opt.replay = sections == "all";
  opt.batch = static_cast<size_t>(flags.Int("batch", 64));
  opt.query_every = static_cast<uint64_t>(flags.Int("query-every", 8));
  CheckOptions check;
  check.rows_path = flags.Get("rows", "");
  check.certificate = flags.Has("certificate");
  check.final_state = flags.Has("final");
  // The CLI's --threads sets the process default the same way.
  tkc::SetDefaultThreads(opt.threads);

  JsonValue doc = JsonValue::Object();
  doc.Set("threads", opt.threads)
      .Set("kernel", tkc::KernelName(tkc::CurrentKernel()));

  JsonValue setup = JsonValue::Array();
  const bool setup_replay = flags.Get("setup", "decompose") == "replay";
  // At least 7 repetitions, more while under --setup-seconds (max 100).
  const double setup_seconds =
      static_cast<double>(flags.Int("setup-seconds", 0));
  tkc::Timer setup_budget;
  for (int reps = 0; setup_seconds > 0 && reps < 100 &&
                     (reps < 7 || setup_budget.Seconds() < setup_seconds);
       ++reps) {
    setup.Push(TimeSetup(opt, setup_replay));
  }
  doc.Set("setup_s", std::move(setup));

  // The first pass warms caches and feeds the checks; its spans are dropped.
  {
    SpanLog discarded;
    const PassResult r = RunPass(opt, &discarded);
    doc.Set("checks", RunChecks(r, opt, check)).Set("counts", Counts(r));
  }

  JsonValue passes = JsonValue::Array();
  const double seconds = static_cast<double>(flags.Int("seconds", 0));
  tkc::Timer budget;
  while (seconds > 0 &&
         (passes.Items().empty() || budget.Seconds() < seconds)) {
    SpanLog log;
    const PassResult r = RunPass(opt, &log);
    JsonValue pass = JsonValue::Object();
    pass.Set("spans", SpansJson(log)).Set("counts", Counts(r));
    passes.Push(std::move(pass));
  }
  doc.Set("passes", std::move(passes));
  std::cout << doc.Dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const Flags flags = ParseFlags(argc, argv, 2);
  try {
    if (cmd == "gen") return CmdGen(flags);
    if (cmd == "pass") return CmdPass(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  std::cerr << "usage: perfbench_layers gen|pass --flag=value ...\n";
  return 2;
}
