// Section VI / Claim 3: the DN-Graph iterative estimators converge to
// exactly kappa(e) for every edge, while paying an iteration multiple that
// Triangle K-Core avoids. This bench quantifies both halves of the claim:
// agreement (must be 100%) and the per-iteration cost structure that
// explains Table II's gap (the paper reports 66 iterations at 55 min each
// for TriDN on Flickr).

#include <cstdio>

#include "bench_common.h"
#include "tkc/baselines/dn_graph.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"

namespace tkc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("claim3_convergence", cfg);
  std::printf("=== Claim 3: TriDN/BiTriDN fixpoint == kappa(e) ===\n\n");

  TablePrinter table({12, 10, 12, 12, 12, 12, 12});
  table.Row({"dataset", "|E|", "tkc time", "tridn iters", "bitridn iters",
             "agree(tri)", "agree(bi)"});
  table.Rule();

  for (const char* name : {"synthetic", "stocks", "ppi", "dblp", "astro"}) {
    Dataset ds = MakeDataset(name, cfg.seed, cfg.size_factor);
    const Graph& g = ds.graph;
    Timer t;
    const AnalysisContext ctx(g);
    TriangleCoreResult cores = ComputeTriangleCores(ctx);
    double tkc_s = t.Seconds();
    DnGraphResult tri = TriDn(ctx);
    DnGraphResult bi = BiTriDn(ctx);

    uint64_t agree_tri = 0, agree_bi = 0, edges = 0;
    g.ForEachEdge([&](EdgeId e, const Edge&) {
      ++edges;
      agree_tri += (tri.lambda[e] == cores.kappa[e]);
      agree_bi += (bi.lambda[e] == cores.kappa[e]);
    });
    table.Row({name, FmtCount(edges), Fmt(tkc_s), FmtCount(tri.iterations),
               FmtCount(bi.iterations),
               Fmt(100.0 * agree_tri / edges, 2) + "%",
               Fmt(100.0 * agree_bi / edges, 2) + "%"});
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("dataset", name)
                      .Set("edges", edges)
                      .Set("tkc_seconds", tkc_s)
                      .Set("tridn_iterations", tri.iterations)
                      .Set("bitridn_iterations", bi.iterations)
                      .Set("agree_tridn", static_cast<double>(agree_tri) /
                                              static_cast<double>(edges))
                      .Set("agree_bitridn", static_cast<double>(agree_bi) /
                                                static_cast<double>(edges)));
  }
  table.Rule();
  std::printf(
      "\nAgreement must read 100%% everywhere (Claim 3). The iteration\n"
      "columns show why the direct peel wins: TriDN walks lambda down one\n"
      "unit per pass, BiTriDN jumps but still re-scans all edges per "
      "pass.\n");
  return report.Finish(0);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
