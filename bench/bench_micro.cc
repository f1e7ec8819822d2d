// Micro-benchmarks (google-benchmark): throughput of each pipeline stage —
// triangle listing, K-Core peel, Triangle K-Core peel (both storage modes),
// single-edge dynamic updates, DN-Graph passes, density-plot construction.
// Sizes sweep so scaling behaviour (linear in triangles) is visible.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tkc/obs/json.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/obs/trace.h"

#include "tkc/baselines/dn_graph.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/kcore.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"
#include "tkc/viz/density_plot.h"

namespace tkc {
namespace {

Graph MakeGraph(int64_t n) {
  Rng rng(static_cast<uint64_t>(n) * 7919 + 3);
  return PowerLawCluster(static_cast<VertexId>(n), 4, 0.5, rng);
}

void BM_TriangleCount(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  uint64_t triangles = 0;
  for (auto _ : state) {
    triangles = CountTriangles(g);
    benchmark::DoNotOptimize(triangles);
  }
  state.counters["triangles"] = static_cast<double>(triangles);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_TriangleCount)->Arg(1000)->Arg(10000)->Arg(50000);

// Support counting on the mutable Graph (pointer-chasing adjacency), the
// CSR snapshot (serial), and the CSR snapshot with the parallel kernel —
// the three entry points the AnalysisContext read path unifies. All three
// produce identical per-edge arrays; only throughput differs.
void BM_SupportCount_Graph(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    std::vector<uint32_t> support = ComputeEdgeSupports(g);
    benchmark::DoNotOptimize(support.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_SupportCount_Graph)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SupportCount_Csr(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  CsrGraph csr(g);
  for (auto _ : state) {
    std::vector<uint32_t> support = ComputeEdgeSupports(csr, /*threads=*/1);
    benchmark::DoNotOptimize(support.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(csr.NumEdges()));
}
BENCHMARK(BM_SupportCount_Csr)->Arg(1000)->Arg(10000)->Arg(50000);

// Full-adjacency reference pass — the pre-oriented kernel. The gap between
// this and BM_SupportCount_Csr is the payoff of the degree-ordered
// orientation + hybrid intersection.
void BM_SupportCount_CsrFull(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  CsrGraph csr(g);
  for (auto _ : state) {
    std::vector<uint32_t> support = ComputeEdgeSupportsFullScan(csr);
    benchmark::DoNotOptimize(support.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(csr.NumEdges()));
}
BENCHMARK(BM_SupportCount_CsrFull)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SupportCount_CsrParallel(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  CsrGraph csr(g);
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    std::vector<uint32_t> support = ComputeEdgeSupports(csr, threads);
    benchmark::DoNotOptimize(support.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(csr.NumEdges()));
}
BENCHMARK(BM_SupportCount_CsrParallel)
    ->Args({1000, 4})
    ->Args({10000, 4})
    ->Args({50000, 2})
    ->Args({50000, 4});

void BM_KCorePeel(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    KCoreResult r = ComputeKCores(g);
    benchmark::DoNotOptimize(r.max_core);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_KCorePeel)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TriangleCorePeel_Store(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto r = ComputeTriangleCores(g, TriangleStorageMode::kStoreTriangles);
    benchmark::DoNotOptimize(r.max_kappa);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_TriangleCorePeel_Store)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TriangleCorePeel_Recompute(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    auto r =
        ComputeTriangleCores(g, TriangleStorageMode::kRecomputeTriangles);
    benchmark::DoNotOptimize(r.max_kappa);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_TriangleCorePeel_Recompute)->Arg(1000)->Arg(10000)->Arg(50000);

// Peel-phase split. BM_Peel_Serial pre-forces the context's support cache
// and times only the recompute-mode peel (the support phase is measured by
// the BM_SupportCount_* family above). BM_Peel_Index times the whole default
// store mode on a fresh context: the triangle-partner index build at
// `threads` (one recorded enumeration, which also yields the supports),
// then the bucket peel over it.
void BM_Peel_Serial(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  AnalysisContext ctx(g, /*threads=*/1);
  ctx.Supports();
  for (auto _ : state) {
    auto r = ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
    benchmark::DoNotOptimize(r.max_kappa);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_Peel_Serial)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_Peel_Index(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto csr = std::make_shared<const CsrGraph>(g);
  for (auto _ : state) {
    AnalysisContext ctx(csr, threads);
    auto r = ComputeTriangleCores(ctx, TriangleStorageMode::kStoreTriangles);
    benchmark::DoNotOptimize(r.max_kappa);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_Peel_Index)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({50000, 1})
    ->Args({50000, 4});

// Churn at a steady edge count: each iteration removes a random live edge
// while fewer than 64 removals are pending, and otherwise re-inserts the
// oldest one, so both kinds of update hit triangle-rich edges and the graph
// stays the base minus at most 64 edges however many iterations the
// library picks.
void BM_DynamicInsertDelete(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  DynamicTriangleCore dyn{DeltaCsr(g)};
  Rng rng(11);
  const VertexId n = dyn.graph().NumVertices();
  std::deque<Edge> pending;
  for (auto _ : state) {
    if (pending.size() == 64) {
      dyn.InsertEdge(pending.front().u, pending.front().v);
      pending.pop_front();
      continue;
    }
    VertexId u = 0;
    do {
      u = static_cast<VertexId>(rng.NextBounded(n));
    } while (dyn.graph().Degree(u) == 0);
    const DeltaCsr::NeighborSpan around = dyn.graph().Neighbors(u);
    const VertexId v = around[rng.NextBounded(around.size())].vertex;
    dyn.RemoveEdge(u, v);
    pending.push_back(Edge{u, v});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicInsertDelete)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BiTriDnPass(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    DnGraphResult r = BiTriDn(g, 1);  // one synchronous pass
    benchmark::DoNotOptimize(r.edge_updates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_BiTriDnPass)->Arg(1000)->Arg(10000);

void BM_DensityPlotBuild(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  TriangleCoreResult cores = ComputeTriangleCores(g);
  std::vector<uint32_t> co(g.EdgeCapacity(), 0);
  g.ForEachEdge([&](EdgeId e, const Edge&) { co[e] = cores.kappa[e] + 2; });
  for (auto _ : state) {
    DensityPlot plot = BuildDensityPlot(g, co);
    benchmark::DoNotOptimize(plot.points.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumVertices()));
}
BENCHMARK(BM_DensityPlotBuild)->Arg(1000)->Arg(10000)->Arg(50000);

// Sweep of the merge/gallop cutoff knob on a 100:1 skewed pair (10000 vs
// 100 entries): cutoffs below the ratio take the galloping path, cutoffs
// above force the linear merge. The knee should sit near
// kGallopCutoffRatio (=16); if a hardware generation moves it, this is the
// case that shows where (see docs/performance.md).
void BM_IntersectHybrid_Cutoff(benchmark::State& state) {
  const size_t cutoff = static_cast<size_t>(state.range(0));
  std::vector<Neighbor> a(10000), b(100);
  for (uint32_t i = 0; i < a.size(); ++i) {
    a[i] = Neighbor{3 * i, i};
  }
  for (uint32_t j = 0; j < b.size(); ++j) {
    b[j] = Neighbor{300 * j, j};  // every 100th entry of `a` matches
  }
  for (auto _ : state) {
    IntersectStats stats;
    uint64_t hits = 0;
    IntersectSortedHybrid(a.data(), a.data() + a.size(), b.data(),
                          b.data() + b.size(), stats,
                          [&](VertexId, EdgeId, EdgeId) { ++hits; }, cutoff);
    benchmark::DoNotOptimize(hits);
    benchmark::DoNotOptimize(stats.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(b.size()));
}
BENCHMARK(BM_IntersectHybrid_Cutoff)
    ->Arg(1)
    ->Arg(4)
    ->Arg(static_cast<int64_t>(kGallopCutoffRatio))
    ->Arg(64)
    ->Arg(1 << 20);

void BM_EdgeLookup(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  Rng rng(13);
  const VertexId n = g.NumVertices();
  for (auto _ : state) {
    EdgeId e = g.FindEdge(static_cast<VertexId>(rng.NextBounded(n)),
                          static_cast<VertexId>(rng.NextBounded(n)));
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_EdgeLookup)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace tkc

namespace {

// Re-wraps google-benchmark's native JSON (written to `raw_path`) into the
// repo-wide tkc.bench.v1 envelope at `out_path`: the library's benchmark
// rows become `rows`, its machine context rides along as a note, and the
// global metrics/trace dump is attached like every other bench artifact.
int WriteBenchEnvelope(const std::string& raw_path,
                       const std::string& out_path) {
  std::ifstream in(raw_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto raw = tkc::obs::JsonValue::Parse(buf.str());
  if (!in.good() || !raw.has_value()) {
    std::fprintf(stderr, "error: cannot re-read '%s'\n", raw_path.c_str());
    return 2;
  }
  std::remove(raw_path.c_str());

  tkc::obs::JsonValue doc = tkc::obs::JsonValue::Object();
  doc.Set("schema", "tkc.bench.v1")
      .Set("bench", "bench_micro")
      .Set("threads", static_cast<long long>(tkc::DefaultThreads()));
  if (const tkc::obs::JsonValue* context = raw->Find("context")) {
    doc.Set("machine_context", *context);
  }
  if (const tkc::obs::JsonValue* rows = raw->Find("benchmarks")) {
    doc.Set("rows", *rows);
  } else {
    doc.Set("rows", tkc::obs::JsonValue::Array());
  }
  doc.Set("metrics", tkc::obs::MetricsRegistry::Global().ToJson())
      .Set("trace", tkc::obs::PhaseTracer::Global().ToJson());
  std::ofstream out(out_path, std::ios::binary);
  out << doc.Dump(2) << '\n';
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

// google-benchmark owns the command line here; accept the repo-wide
// --json-out= and --threads= flags by translating the former into the
// library's native reporter flags (then re-wrapping the output into the
// tkc.bench.v1 envelope) and consuming the latter directly, so every bench
// binary shares one machine-readable interface.
int main(int argc, char** argv) {
  std::string json_out;
  std::string trace_out;
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    std::string_view arg(argv[i]);
    constexpr std::string_view kJsonOut = "--json-out=";
    constexpr std::string_view kTraceOut = "--trace-out=";
    constexpr std::string_view kThreads = "--threads=";
    if (arg.substr(0, kJsonOut.size()) == kJsonOut) {
      json_out = std::string(arg.substr(kJsonOut.size()));
      args.emplace_back("--benchmark_out=" + json_out + ".raw");
      args.emplace_back("--benchmark_out_format=json");
    } else if (arg.substr(0, kTraceOut.size()) == kTraceOut) {
      trace_out = std::string(arg.substr(kTraceOut.size()));
    } else if (arg.substr(0, kThreads.size()) == kThreads) {
      int threads = std::atoi(std::string(arg.substr(kThreads.size())).c_str());
      tkc::SetDefaultThreads(threads == 0 ? tkc::HardwareThreads() : threads);
    } else {
      args.emplace_back(arg);
    }
  }
  if (!trace_out.empty()) tkc::obs::TimelineRecorder::Global().Start();
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int code = 0;
  if (!json_out.empty()) code = WriteBenchEnvelope(json_out + ".raw", json_out);
  if (!trace_out.empty()) {
    if (tkc::obs::WriteTraceArtifact(trace_out, "bench", "bench_micro",
                                     code)) {
      std::printf("wrote %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n", trace_out.c_str());
      if (code == 0) code = 2;
    }
  }
  return code;
}
