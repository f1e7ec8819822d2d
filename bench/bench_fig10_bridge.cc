// Reproduces Figure 10: the Bridge Clique plot between DBLP 2003 and 2004.
// The paper's first major clique is a 6-author bridge: group 1 (Srivastava,
// Cormode, Muthukrishnan, Korn — data streams) and group 2 (Johnson,
// Spatscheck — networking) who co-wrote "Holistic UDAFs at Streaming
// Speeds" in 2004. We plant a 4-author and a 2-author group in separate
// components of year 1 and have them merge in year 2.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/connectivity.h"
#include "tkc/patterns/patterns.h"
#include "tkc/util/random.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/svg.h"

namespace tkc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("fig10_bridge", cfg);
  std::printf("=== Figure 10: Bridge cliques, DBLP 2003 -> 2004 ===\n\n");

  Rng rng(cfg.seed + 1);
  VertexId authors = std::max<VertexId>(
      240, static_cast<VertexId>(6445 * cfg.size_factor));
  // Reserve the planted actors *outside* the background so the two groups
  // stay in distinct year-1 components (DBLP is highly fragmented).
  Graph year1 = CollaborationGraph(authors - 8, (authors - 8) / 2, 2, 5,
                                   rng);
  year1.EnsureVertices(authors);
  std::vector<VertexId> group1{authors - 8, authors - 7, authors - 6,
                               authors - 5};  // data-streams quartet
  std::vector<VertexId> group2{authors - 4, authors - 3};  // networking duo
  PlantClique(year1, group1);
  PlantClique(year1, group2);

  Graph year2 = year1;
  // Background churn: ordinary new papers.
  for (size_t paper = 0; paper < authors / 10; ++paper) {
    uint32_t team = static_cast<uint32_t>(rng.NextInRange(2, 4));
    std::vector<VertexId> members;
    while (members.size() < team) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(authors - 8));
      if (std::find(members.begin(), members.end(), a) == members.end()) {
        members.push_back(a);
      }
    }
    PlantClique(year2, members);
  }
  // The merged 2004 paper: all six authors together.
  std::vector<VertexId> merged = group1;
  merged.insert(merged.end(), group2.begin(), group2.end());
  PlantClique(year2, merged);

  PrintGraphSummary("dblp 2003", year1);
  PrintGraphSummary("dblp 2004", year2);
  ComponentResult comps = ConnectedComponents(CsrGraph(year1));
  std::printf("groups in distinct 2003 components: %s\n\n",
              comps.component_of[group1[0]] != comps.component_of[group2[0]]
                  ? "yes"
                  : "NO");

  Timer t;
  LabeledGraph lg = LabelFromGraphs(year1, year2);
  TemplateDetectionResult det = DetectTemplateCliques(lg, BridgeSpec());
  std::printf("Algorithm 4 (Bridge) in %ss: %llu characteristic + %llu "
              "possible triangles\n",
              Fmt(t.Seconds()).c_str(),
              static_cast<unsigned long long>(det.characteristic_triangles),
              static_cast<unsigned long long>(det.possible_triangles));

  DensityPlot plot = BuildDensityPlot(CsrGraph(lg.graph), det.co_clique_size,
                                      /*include_zero_vertices=*/false);
  auto plateaus = FindPlateaus(plot, 4, 3);
  TablePrinter table({10, 8, 8, 40});
  table.Row({"plateau", "height", "width", "authors"});
  table.Rule();
  for (size_t i = 0; i < std::min<size_t>(plateaus.size(), 4); ++i) {
    std::string names;
    for (VertexId v : plateaus[i].vertices) {
      names.append("a").append(std::to_string(v)).append(" ");
      if (names.size() > 36) break;
    }
    table.Row({"#" + FmtCount(i + 1), FmtCount(plateaus[i].value),
               FmtCount(plateaus[i].end - plateaus[i].begin), names});
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("plateau", i + 1)
                      .Set("height", plateaus[i].value)
                      .Set("width", plateaus[i].end - plateaus[i].begin));
  }
  table.Rule();

  bool reproduced = false;
  if (!plateaus.empty() && plateaus[0].value == 6) {
    reproduced = true;
    for (VertexId v : merged) {
      reproduced = reproduced &&
                   std::find(plateaus[0].vertices.begin(),
                             plateaus[0].vertices.end(),
                             v) != plateaus[0].vertices.end();
    }
  }
  std::printf("\ndensest Bridge clique is the planted 6-author merged "
              "paper: %s\n",
              reproduced ? "reproduced" : "NOT reproduced");

  AsciiChartOptions chart;
  chart.height = 10;
  std::printf("\n%s", RenderAsciiChart(plot, chart).c_str());
  SvgOptions svg;
  svg.title = "Bridge clique distribution (DBLP 2004 over 2003)";
  if (!plateaus.empty()) {
    svg.markers.push_back({plateaus[0].begin, plateaus[0].end,
                           "6-author bridge", "#d62728"});
  }
  WriteTextFile(ArtifactDir() + "/fig10_bridge.svg", RenderSvg(plot, svg));
  std::printf("artifact: %s/fig10_bridge.svg\n", ArtifactDir().c_str());
  report.Note("characteristic_triangles", det.characteristic_triangles);
  report.Note("possible_triangles", det.possible_triangles);
  report.Note("reproduced", reproduced);
  return report.Finish(reproduced ? 0 : 1);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
