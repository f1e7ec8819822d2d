// template_explorer: run all three template-pattern detectors (Algorithm 4)
// over a DBLP-style year transition and print each pattern's clique
// distribution — the interactive probing workflow of Section V.
//
// Usage: template_explorer [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "tkc/gen/generators.h"
#include "tkc/patterns/patterns.h"
#include "tkc/util/random.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"

using namespace tkc;

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 9;
  Rng rng(seed);

  // Year 1: a collaboration network.
  Graph year1 = CollaborationGraph(1500, 700, 2, 5, rng);
  // Year 2: ordinary churn + one of each planted pattern.
  Graph year2 = year1;
  for (int paper = 0; paper < 120; ++paper) {
    std::vector<VertexId> team;
    uint32_t size = static_cast<uint32_t>(rng.NextInRange(2, 4));
    while (team.size() < size) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(1500));
      if (std::find(team.begin(), team.end(), a) == team.end()) {
        team.push_back(a);
      }
    }
    PlantClique(year2, team);
  }
  // New Form: five strangers collaborate.
  std::vector<VertexId> strangers;
  while (strangers.size() < 5) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(1500));
    bool ok = std::find(strangers.begin(), strangers.end(), a) ==
              strangers.end();
    for (VertexId s : strangers) ok = ok && !year2.HasEdge(a, s);
    if (ok) strangers.push_back(a);
  }
  PlantClique(year2, strangers);
  // New Join: three newcomers join a veteran pair.
  VertexId v1 = 10, v2 = 11;
  year2.AddEdge(v1, v2);
  year1.AddEdge(v1, v2);
  std::vector<VertexId> joiners{v1, v2};
  for (int i = 0; i < 3; ++i) joiners.push_back(year2.AddVertex());
  PlantClique(year2, joiners);

  std::printf("year1: %zu edges, year2: %zu edges\n\n", year1.NumEdges(),
              year2.NumEdges());

  LabeledGraph lg = LabelFromGraphs(year1, year2);
  for (const TemplateSpec& spec :
       {NewFormSpec(), BridgeSpec(), NewJoinSpec()}) {
    TemplateDetectionResult det = DetectTemplateCliques(lg, spec);
    DensityPlot plot = BuildDensityPlot(CsrGraph(lg.graph),
                                        det.co_clique_size,
                                        /*include_zero_vertices=*/false);
    std::printf("--- %s: %llu characteristic, %llu possible triangles, "
                "%zu special edges ---\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(
                    det.characteristic_triangles),
                static_cast<unsigned long long>(det.possible_triangles),
                det.special_edges.size());
    if (plot.points.empty()) {
      std::printf("(no %s cliques this transition)\n\n", spec.name.c_str());
      continue;
    }
    auto plateaus = FindPlateaus(plot, 3, 2);
    for (size_t i = 0; i < plateaus.size() && i < 3; ++i) {
      std::printf("  plateau %zu: estimated clique size %u, vertices:",
                  i + 1, plateaus[i].value);
      for (size_t k = 0; k < plateaus[i].vertices.size() && k < 10; ++k) {
        std::printf(" %u", plateaus[i].vertices[k]);
      }
      std::printf("\n");
    }
    AsciiChartOptions chart;
    chart.height = 8;
    chart.width = 72;
    std::printf("%s\n", RenderAsciiChart(plot, chart).c_str());
  }
  return 0;
}
