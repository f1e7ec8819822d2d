// Reproduces Figure 9: the New Form Clique plot for a DBLP-like year pair.
// The paper's densest New Form clique is a 6-author group (Studer, Aberer,
// Illarramendi, Kashyap, Staab, De Santis) collaborating for the first time
// in 2004. We plant a 6-author first-time collaboration among background
// churn of ordinary new papers and require the detector to surface it as
// the densest New Form plateau.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "tkc/gen/generators.h"
#include "tkc/patterns/patterns.h"
#include "tkc/util/random.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/svg.h"

namespace tkc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("fig9_newform", cfg);
  std::printf("=== Figure 9: New Form cliques, DBLP year pair ===\n\n");

  Rng rng(cfg.seed);
  VertexId authors = std::max<VertexId>(
      200, static_cast<VertexId>(6445 * cfg.size_factor));
  Graph year1 = CollaborationGraph(authors, authors / 2, 2, 5, rng);

  // Year 2 = year 1 + ordinary new papers (teams of 2-4, mixing old
  // collaborators) + the planted 6-author first-time collaboration.
  Graph year2 = year1;
  for (size_t paper = 0; paper < authors / 8; ++paper) {
    uint32_t team = static_cast<uint32_t>(rng.NextInRange(2, 4));
    std::vector<VertexId> members;
    while (members.size() < team) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(authors));
      if (std::find(members.begin(), members.end(), a) == members.end()) {
        members.push_back(a);
      }
    }
    PlantClique(year2, members);
  }
  // The planted event: 6 authors with NO prior pairwise collaborations.
  std::vector<VertexId> stars;
  while (stars.size() < 6) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(authors));
    bool clean = std::find(stars.begin(), stars.end(), a) == stars.end();
    for (VertexId s : stars) {
      clean = clean && !year2.HasEdge(a, s);
    }
    if (clean) stars.push_back(a);
  }
  std::sort(stars.begin(), stars.end());
  PlantClique(year2, stars);

  PrintGraphSummary("dblp year1", year1);
  PrintGraphSummary("dblp year2", year2);

  Timer t;
  LabeledGraph lg = LabelFromGraphs(year1, year2);
  TemplateDetectionResult det = DetectTemplateCliques(lg, NewFormSpec());
  std::printf("\nAlgorithm 4 (NewForm) in %ss: %llu characteristic "
              "triangles, %zu special edges\n",
              Fmt(t.Seconds()).c_str(),
              static_cast<unsigned long long>(det.characteristic_triangles),
              det.special_edges.size());

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
    for (VertexId s : stars) {
      reproduced = reproduced &&
                   std::find(plateaus[0].vertices.begin(),
                             plateaus[0].vertices.end(),
                             s) != plateaus[0].vertices.end();
    }
  }
  std::printf("\ndensest New Form clique is the planted 6-author "
              "first-time collaboration: %s\n",
              reproduced ? "reproduced" : "NOT reproduced");

  AsciiChartOptions chart;
  chart.height = 10;
  std::printf("\n%s", RenderAsciiChart(plot, chart).c_str());
  SvgOptions svg;
  svg.title = "New Form clique distribution (DBLP year 2)";
  if (!plateaus.empty()) {
    svg.markers.push_back(
        {plateaus[0].begin, plateaus[0].end, "6-author new clique",
         "#d62728"});
  }
  WriteTextFile(ArtifactDir() + "/fig9_newform.svg", RenderSvg(plot, svg));
  std::printf("artifact: %s/fig9_newform.svg\n", ArtifactDir().c_str());
  report.Note("characteristic_triangles", det.characteristic_triangles);
  report.Note("reproduced", reproduced);
  return report.Finish(reproduced ? 0 : 1);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
