// Reproduces Table II: execution time of Triangle K-Core (Algorithm 1)
// against CSV and the DN-Graph variants TriDN / BiTriDN on the Table I
// dataset analogues.
//
// Expected shape (paper): Triangle K-Core is fastest everywhere; the
// DN-Graph variants pay an iterative multiple of it; CSV is slowest and
// infeasible on large graphs (the paper could not run CSV or TriDN on its
// three largest datasets — we apply the same cutoffs).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "tkc/baselines/csv.h"
#include "tkc/baselines/dn_graph.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"

namespace tkc::bench {
namespace {

// Feasibility gates mirroring the paper's "could not run" notes: CSV and
// TriDN did not run on the paper's three largest datasets (wiki, flickr,
// livejournal) and BiTriDN took too long to converge there. TriDN's
// unit-step convergence additionally prices it out of the 380k+-edge sets
// here; bench_claim3_convergence exhibits its full iteration cost on astro.
constexpr size_t kCsvMaxEdges = 950000;
constexpr size_t kTriDnMaxEdges = 200000;
constexpr size_t kBiTriDnMaxEdges = 1200000;

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("table2_runtime", cfg);
  std::printf(
      "=== Table II: execution time (seconds) — Triangle K-Core vs "
      "competitors ===\n");
  std::printf("size-factor=%.3f seed=%llu\n\n", cfg.size_factor,
              static_cast<unsigned long long>(cfg.seed));

  TablePrinter table({14, 10, 10, 12, 10, 10, 10, 10});
  table.Row({"dataset", "|V|", "|E|", "triangles", "TKC", "BiTriDN", "TriDN",
             "CSV"});
  table.Rule();

  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    Dataset ds = MakeDataset(spec.name, cfg.seed, cfg.size_factor);
    const Graph& g = ds.graph;
    const size_t edges = g.NumEdges();

    Timer t;
    TriangleCoreResult cores = ComputeTriangleCores(g);
    double tkc_s = t.Seconds();

    // Phase split on the shared CSR read path: support pass in both
    // enumeration modes (full adjacency vs oriented out-lists), then the
    // peel against the context's pre-forced support cache — recompute mode
    // vs the default index mode (index build at cfg.threads + peel).
    AnalysisContext ctx(g, cfg.threads);
    t.Restart();
    auto support_full = ComputeEdgeSupportsFullScan(ctx.csr());
    const double support_full_s = t.Seconds();
    t.Restart();
    auto support_oriented = ComputeEdgeSupports(ctx.csr(), 1);
    const double support_oriented_s = t.Seconds();
    ctx.Supports();
    t.Restart();
    TriangleCoreResult recompute_peel =
        ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
    const double peel_recompute_s = t.Seconds();
    t.Restart();
    TriangleCoreResult index_peel = ComputeTriangleCores(ctx);
    const double peel_index_s = t.Seconds();

    std::string bitridn_s = "skipped", tridn_s = "skipped",
                csv_s = "skipped";
    bool values_match = support_full == support_oriented &&
                        recompute_peel.kappa == index_peel.kappa &&
                        index_peel.kappa == cores.kappa;
    tkc::obs::JsonValue row = tkc::obs::JsonValue::Object();
    row.Set("dataset", spec.name)
        .Set("vertices", g.NumVertices())
        .Set("edges", edges)
        .Set("triangles", cores.triangle_count)
        .Set("tkc_seconds", tkc_s)
        .Set("support_full_seconds", support_full_s)
        .Set("support_oriented_seconds", support_oriented_s)
        .Set("peel_recompute_seconds", peel_recompute_s)
        .Set("peel_index_seconds", peel_index_s)
        .Set("peel_threads", ctx.threads());
    // The baselines run serially on the shared snapshot, each counting its
    // own supports inside its timed region.
    if (edges <= kBiTriDnMaxEdges) {
      t.Restart();
      DnGraphResult bi = BiTriDn(AnalysisContext(ctx.csr_ptr(), 1));
      double s = t.Seconds();
      bitridn_s = Fmt(s) + " (" + FmtCount(bi.iterations) + "it)";
      row.Set("bitridn_seconds", s).Set("bitridn_iterations", bi.iterations);
      g.ForEachEdge([&](EdgeId e, const Edge&) {
        if (bi.lambda[e] != cores.kappa[e]) values_match = false;
      });
    }
    if (edges <= kTriDnMaxEdges) {
      t.Restart();
      DnGraphResult tri = TriDn(AnalysisContext(ctx.csr_ptr(), 1));
      double s = t.Seconds();
      tridn_s = Fmt(s) + " (" + FmtCount(tri.iterations) + "it)";
      row.Set("tridn_seconds", s).Set("tridn_iterations", tri.iterations);
      g.ForEachEdge([&](EdgeId e, const Edge&) {
        if (tri.lambda[e] != cores.kappa[e]) values_match = false;
      });
    }
    if (edges <= kCsvMaxEdges) {
      CsvOptions opt;
      opt.max_neighborhood = 96;
      opt.clique_node_budget = 20000;
      t.Restart();
      CsvResult csv = ComputeCsv(ctx.csr(), opt);
      double s = t.Seconds();
      csv_s = Fmt(s);
      row.Set("csv_seconds", s);
      (void)csv;
    }
    row.Set("values_match", values_match);
    report.AddRow(std::move(row));

    table.Row({spec.name, FmtCount(g.NumVertices()), FmtCount(edges),
               FmtCount(cores.triangle_count), Fmt(tkc_s), bitridn_s,
               tridn_s, csv_s});
    std::printf(
        "  phases: support full=%s oriented=%s | peel recompute=%s "
        "index(t%d)=%s\n",
        Fmt(support_full_s).c_str(), Fmt(support_oriented_s).c_str(),
        Fmt(peel_recompute_s).c_str(), ctx.threads(),
        Fmt(peel_index_s).c_str());
    if (!values_match) {
      std::printf("  !! kernel/baseline outputs disagreed with kappa on %s\n",
                  spec.name.c_str());
    }
  }
  table.Rule();
  std::printf(
      "\nNotes: DN-Graph variants converge to exactly kappa(e) (Claim 3);\n"
      "'skipped' mirrors the paper's infeasibility cutoffs for large "
      "graphs.\n");
  return report.Finish(0);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
