// Reproduces Figure 11: the New Join Clique plot between DBLP 2000 and
// 2001. The paper's densest New Join clique has 9 authors: 3 veterans
// (Wang, Maier, Shapiro — query processing) joined by 6 authors absent
// from DBLP 2000, all co-writing one 2001 paper. We plant exactly that.

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
  BenchReporter report("fig11_newjoin", cfg);
  std::printf("=== Figure 11: New Join cliques, DBLP 2000 -> 2001 ===\n\n");

  Rng rng(cfg.seed + 2);
  VertexId authors = std::max<VertexId>(
      200, static_cast<VertexId>(6445 * cfg.size_factor));
  Graph year1 = CollaborationGraph(authors, authors / 2, 2, 5, rng);

  // The veteran trio: make sure they form a 2000 clique (their query
  // processing paper).
  std::vector<VertexId> veterans{0, 1, 2};
  PlantClique(year1, veterans);

  Graph year2 = year1;
  // Background churn: ordinary new papers among existing authors plus a
  // few small joins of fresh authors.
  for (size_t paper = 0; paper < authors / 10; ++paper) {
    uint32_t team = static_cast<uint32_t>(rng.NextInRange(2, 4));
    std::vector<VertexId> members;
    while (members.size() < team) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(authors));
      if (std::find(members.begin(), members.end(), a) == members.end()) {
        members.push_back(a);
      }
    }
    PlantClique(year2, members);
    if (paper % 7 == 0) {  // one newcomer joins this team
      VertexId fresh = year2.AddVertex();
      for (VertexId m : members) year2.AddEdge(fresh, m);
    }
  }
  // The planted event: 6 brand-new authors join the veterans on one paper.
  std::vector<VertexId> team = veterans;
  for (int i = 0; i < 6; ++i) team.push_back(year2.AddVertex());
  PlantClique(year2, team);

  PrintGraphSummary("dblp 2000", year1);
  PrintGraphSummary("dblp 2001", year2);

  Timer t;
  LabeledGraph lg = LabelFromGraphs(year1, year2);
  TemplateDetectionResult det = DetectTemplateCliques(lg, NewJoinSpec());
  std::printf("\nAlgorithm 4 (NewJoin) in %ss: %llu characteristic + %llu "
              "possible triangles\n",
              Fmt(t.Seconds()).c_str(),
              static_cast<unsigned long long>(det.characteristic_triangles),
              static_cast<unsigned long long>(det.possible_triangles));

  DensityPlot plot = BuildDensityPlot(CsrGraph(lg.graph), det.co_clique_size,
                                      /*include_zero_vertices=*/false);
  auto plateaus = FindPlateaus(plot, 4, 3);
  TablePrinter table({10, 8, 8, 40});
  table.Row({"plateau", "height", "width", "authors (n=new)"});
  table.Rule();
  for (size_t i = 0; i < std::min<size_t>(plateaus.size(), 4); ++i) {
    std::string names;
    for (VertexId v : plateaus[i].vertices) {
      names.append(lg.IsNewVertex(v) ? "n" : "a")
          .append(std::to_string(v))
          .append(" ");
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
  if (!plateaus.empty() && plateaus[0].value == 9) {
    reproduced = true;
    for (VertexId v : team) {
      reproduced = reproduced &&
                   std::find(plateaus[0].vertices.begin(),
                             plateaus[0].vertices.end(),
                             v) != plateaus[0].vertices.end();
    }
  }
  std::printf("\ndensest New Join clique is the planted 9-author paper "
              "(3 veterans + 6 newcomers): %s\n",
              reproduced ? "reproduced" : "NOT reproduced");

  AsciiChartOptions chart;
  chart.height = 10;
  std::printf("\n%s", RenderAsciiChart(plot, chart).c_str());
  SvgOptions svg;
  svg.title = "New Join clique distribution (DBLP 2001 over 2000)";
  if (!plateaus.empty()) {
    svg.markers.push_back({plateaus[0].begin, plateaus[0].end,
                           "9-author join", "#d62728"});
  }
  WriteTextFile(ArtifactDir() + "/fig11_newjoin.svg", RenderSvg(plot, svg));
  std::printf("artifact: %s/fig11_newjoin.svg\n", ArtifactDir().c_str());
  report.Note("characteristic_triangles", det.characteristic_triangles);
  report.Note("possible_triangles", det.possible_triangles);
  report.Note("reproduced", reproduced);
  return report.Finish(reproduced ? 0 : 1);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
