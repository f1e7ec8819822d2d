// Reproduces Figure 6: qualitative comparison of the CSV density plot and
// the Triangle K-Core density plot on the small/medium datasets.
//
// Expected shape (paper): the two plots are near identical — same plateaus
// at the same heights, occasional small phase shifts from ordering
// differences. We quantify this with per-vertex value correlation and the
// fraction of vertices whose plotted value matches exactly, and write
// side-by-side SVGs per dataset.

#include <cstdio>

#include "bench_common.h"
#include "tkc/baselines/csv.h"
#include "tkc/core/triangle_core.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/svg.h"

namespace tkc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("fig6_density_plots", cfg);
  std::printf("=== Figure 6: CSV plot vs Triangle K-Core plot ===\n");
  std::printf("size-factor=%.3f seed=%llu\n\n", cfg.size_factor,
              static_cast<unsigned long long>(cfg.seed));

  TablePrinter table({12, 10, 12, 12, 14, 14, 12});
  table.Row({"dataset", "|V|", "csv time", "tkc time", "value corr",
             "identical", "max |diff|"});
  table.Rule();

  for (const char* name : {"synthetic", "stocks", "ppi", "dblp"}) {
    Dataset ds = MakeDataset(name, cfg.seed, cfg.size_factor);
    const CsrGraph g(ds.graph);

    Timer t;
    CsvResult csv = ComputeCsv(g);
    double csv_s = t.Seconds();

    t.Restart();
    TriangleCoreResult cores = ComputeTriangleCores(g);
    std::vector<uint32_t> tkc_co(g.EdgeCapacity(), 0);
    g.ForEachEdge([&](EdgeId e, const Edge&) {
      tkc_co[e] = cores.kappa[e] + 2;
    });
    double tkc_s = t.Seconds();

    DensityPlot csv_plot = BuildDensityPlot(g, csv.co_clique_size);
    DensityPlot tkc_plot = BuildDensityPlot(g, tkc_co);
    PlotComparison cmp = ComparePlots(csv_plot, tkc_plot);

    table.Row({name, FmtCount(g.NumVertices()), Fmt(csv_s), Fmt(tkc_s),
               Fmt(cmp.value_correlation, 4),
               Fmt(100 * cmp.identical_fraction, 1) + "%",
               Fmt(cmp.max_abs_diff, 0)});

    SvgOptions top, bottom;
    top.title = std::string(name) + " — CSV co_clique_size";
    bottom.title = std::string(name) + " — Triangle K-Core kappa+2";
    bottom.series_color = "#2ca02c";
    std::string path = ArtifactDir() + "/fig6_" + name + ".svg";
    WriteTextFile(path, RenderDualSvg(csv_plot, tkc_plot, top, bottom));
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("dataset", name)
                      .Set("vertices", g.NumVertices())
                      .Set("csv_seconds", csv_s)
                      .Set("tkc_seconds", tkc_s)
                      .Set("value_correlation", cmp.value_correlation)
                      .Set("identical_fraction", cmp.identical_fraction)
                      .Set("max_abs_diff", cmp.max_abs_diff)
                      .Set("svg", path));
  }
  table.Rule();

  // Terminal rendering of one pair, like the paper's visual side-by-side.
  const CsrGraph ppi(
      MakeDataset("ppi", cfg.seed, cfg.size_factor * 0.3).graph);
  TriangleCoreResult cores = ComputeTriangleCores(ppi);
  std::vector<uint32_t> co(ppi.EdgeCapacity(), 0);
  ppi.ForEachEdge([&](EdgeId e, const Edge&) {
    co[e] = cores.kappa[e] + 2;
  });
  AsciiChartOptions opt;
  opt.height = 12;
  std::printf("\nTriangle K-Core density plot, ppi (reduced):\n%s",
              RenderAsciiChart(BuildDensityPlot(ppi, co), opt).c_str());
  std::printf("\nSVGs written to %s/fig6_<dataset>.svg\n",
              ArtifactDir().c_str());
  return report.Finish(0);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
