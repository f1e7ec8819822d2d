// Ingest pipeline benchmark: text parse, CSR freeze, and the binary graph
// cache, sized at ~1M edges by default. The serial baseline is the
// pre-pipeline istringstream reader (kept verbatim below as
// LegacyReadEdgeList), so the rows measure what the chunked tokenizer and
// the parallel freeze actually bought:
//
//   BM_Parse_Serial        legacy getline + istringstream loop
//   BM_Parse_Ingest1/8     chunked buffer parser at 1 / 8 workers
//   BM_Freeze_Serial/8     CsrGraph::Freeze at 1 / 8 workers
//   BM_ParseFreeze_*       end-to-end text → builder Graph → frozen CSR
//   BM_ParseToCsr_Ingest1/8  text → edge table → frozen CSR (the CLI's
//                          load path: no builder Graph) at 1 / 8 workers
//   BM_CacheSave/CacheLoad .tkcg snapshot write / validated load
//
// The derived speedup notes (speedup_parse_freeze, speedup_cache_load) are
// the acceptance numbers recorded in BENCH_ingest.json; bench_compare
// gates on the BM_(Parse|Freeze|CacheLoad) rows.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/graph_cache.h"
#include "tkc/io/parallel_ingest.h"
#include "tkc/util/random.h"
#include "tkc/util/timer.h"

namespace tkc::bench {
namespace {

// The pre-pipeline reader, verbatim: one istringstream per line, AddEdge
// per row. This is the honest baseline — it is what `tkc` shipped before
// the chunked tokenizer replaced it.
Graph LegacyReadEdgeList(std::istream& in) {
  Graph g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    long long u = -1, v = -1;
    if (!(fields >> u >> v) || u < 0 || v < 0 ||
        u > static_cast<long long>(kInvalidVertex) - 1 ||
        v > static_cast<long long>(kInvalidVertex) - 1) {
      continue;
    }
    if (u == v) continue;
    bool inserted = false;
    g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v), &inserted);
  }
  return g;
}

// Best-of-N wall time for one timed body (N small: the bodies are ~0.1-2s
// at default size and the minimum filters scheduler noise).
template <typename Fn>
double BestSeconds(int reps, Fn&& body) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    body();
    best = std::min(best, t.Seconds());
  }
  return best;
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) {
  using namespace tkc;
  using namespace tkc::bench;

  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("ingest", cfg);

  // ~1M edges at size_factor 1 (PLC keeps a realistic triangle-dense
  // degree distribution, the same family the decomposition benches use).
  const VertexId n = std::max<VertexId>(
      2000, static_cast<VertexId>(125000 * cfg.size_factor));
  Rng rng(cfg.seed);
  Graph source = PowerLawCluster(n, 8, 0.3, rng);
  PrintGraphSummary("ingest", source);

  std::ostringstream text_stream;
  WriteEdgeList(source, text_stream);
  const std::string text = text_stream.str();
  const std::string edges_path = ArtifactDir() + "/bench_ingest_edges.txt";
  const std::string cache_path = ArtifactDir() + "/bench_ingest.tkcg";
  {
    std::ofstream file(edges_path, std::ios::binary);
    file << text;
  }
  const int reps = cfg.size_factor < 0.5 ? 5 : 3;

  TablePrinter table({24, 12, 14});
  table.Row({"row", "seconds", "edges"});
  table.Rule();
  auto add_row = [&](const char* name, double seconds, size_t edges) {
    table.Row({name, Fmt(seconds, 4), FmtCount(edges)});
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("name", name)
        .Set("run_seconds", seconds)  // *_seconds: picked up by bench_compare
        .Set("edges", static_cast<uint64_t>(edges));
    report.AddRow(std::move(row));
  };

  size_t edges = 0;
  const double parse_serial = BestSeconds(reps, [&] {
    std::istringstream in(text);
    edges = LegacyReadEdgeList(in).NumEdges();
  });
  add_row("BM_Parse_Serial", parse_serial, edges);

  const double parse_ingest1 = BestSeconds(reps, [&] {
    edges = ParseEdgeListBuffer(text, /*threads=*/1).NumEdges();
  });
  add_row("BM_Parse_Ingest1", parse_ingest1, edges);

  const double parse_ingest8 = BestSeconds(reps, [&] {
    edges = ParseEdgeListBuffer(text, /*threads=*/8).NumEdges();
  });
  add_row("BM_Parse_Ingest8", parse_ingest8, edges);

  const double freeze_serial = BestSeconds(reps, [&] {
    edges = CsrGraph::Freeze(source, 1).NumEdges();
  });
  add_row("BM_Freeze_Serial", freeze_serial, edges);

  const double freeze_parallel = BestSeconds(reps, [&] {
    edges = CsrGraph::Freeze(source, 8).NumEdges();
  });
  add_row("BM_Freeze_Parallel8", freeze_parallel, edges);

  // End-to-end: what a cold `tkc decompose` pays before any analysis.
  const double pf_serial = BestSeconds(reps, [&] {
    std::istringstream in(text);
    Graph g = LegacyReadEdgeList(in);
    edges = CsrGraph(g).NumEdges();
  });
  add_row("BM_ParseFreeze_Serial", pf_serial, edges);

  const double pf_parallel = BestSeconds(reps, [&] {
    Graph g = ParseEdgeListBuffer(text, /*threads=*/8);
    edges = CsrGraph::Freeze(g, 8).NumEdges();
  });
  add_row("BM_ParseFreeze_Parallel8", pf_parallel, edges);

  for (const int threads : {1, 8}) {
    const double seconds = BestSeconds(reps, [&] {
      edges = CsrGraph::FromEdgeTable(ParseEdgeTable(text, threads), threads)
                  .NumEdges();
    });
    add_row(threads == 1 ? "BM_ParseToCsr_Ingest1" : "BM_ParseToCsr_Ingest8",
            seconds, edges);
  }

  CsrGraph frozen = CsrGraph::Freeze(source);
  const double cache_save = BestSeconds(reps, [&] {
    if (!WriteGraphCache(frozen, cache_path)) std::exit(2);
  });
  add_row("BM_CacheSave", cache_save, frozen.NumEdges());

  const double cache_load = BestSeconds(reps, [&] {
    auto loaded = LoadGraphCache(cache_path, /*threads=*/8);
    if (!loaded.has_value()) std::exit(2);
    edges = loaded->NumEdges();
  });
  add_row("BM_CacheLoad", cache_load, edges);

  // Acceptance ratios: pipeline vs the legacy serial text path.
  const double speedup_parse = parse_serial / parse_ingest8;
  const double speedup_parse_freeze = pf_serial / pf_parallel;
  const double speedup_cache = pf_serial / cache_load;
  table.Rule();
  std::printf("parse speedup:        %.2fx (legacy / ingest8)\n",
              speedup_parse);
  std::printf("parse+freeze speedup: %.2fx (legacy / pipeline8)\n",
              speedup_parse_freeze);
  std::printf("cache load speedup:   %.2fx (legacy text ingest / .tkcg)\n",
              speedup_cache);
  report.Note("edges", static_cast<uint64_t>(edges));
  report.Note("speedup_parse", speedup_parse);
  report.Note("speedup_parse_freeze", speedup_parse_freeze);
  report.Note("speedup_cache_load", speedup_cache);
  return report.Finish(0);
}
