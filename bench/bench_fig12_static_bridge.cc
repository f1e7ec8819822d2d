// Reproduces Figure 12: static template-pattern cliques on PPI. Vertices
// carry complex labels; an edge is "new" when it connects two complexes.
// The paper finds (a) Bridge Clique 1 — the 20S proteasome's PRE1 protein
// fully wired into eight 19/22S-regulator proteins, PRE1 acting as the
// bridge node — and (b) two overlapping bridge cliques sharing the
// mRNA-cleavage complexes. We plant both situations.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "tkc/gen/generators.h"
#include "tkc/patterns/patterns.h"
#include "tkc/util/random.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/graph_draw.h"
#include "tkc/viz/svg.h"

namespace tkc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("fig12_static_bridge", cfg);
  std::printf(
      "=== Figure 12: static Bridge cliques across PPI complexes ===\n\n");

  Rng rng(cfg.seed + 3);
  VertexId n = std::max<VertexId>(
      96, static_cast<VertexId>(4741 * cfg.size_factor));
  Graph g = PowerLawCluster(n, 3, 0.5, rng);
  std::vector<uint32_t> complex_of(g.NumVertices(), 0);

  auto take = [&](uint32_t count, uint32_t label) {
    std::vector<VertexId> members;
    while (members.size() < count) {
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (complex_of[v] != 0) continue;
      complex_of[v] = label;
      members.push_back(v);
    }
    PlantClique(g, members);
    return members;
  };

  // Bridge 1: PRE1 (20S proteasome) bridges into 8 regulator proteins.
  auto regulator = take(9, 1);   // "19/22S regulator"
  auto proteasome = take(5, 2);  // "20S proteasome", PRE1 = proteasome[0]
  VertexId pre1 = proteasome[0];
  for (size_t i = 0; i < 8; ++i) g.AddEdge(pre1, regulator[i]);

  // Bridges 2 & 3: GLC7 and RNA14 each bridge into the same 8-protein
  // cleavage/polyadenylation complex — heavily overlapping cliques.
  auto cpsf = take(9, 3);   // "cleavage and polyadenylation" complex
  auto gac = take(3, 4);    // "Gac1p/Glc7p", GLC7 = gac[0]
  auto cf = take(4, 5);     // "mRNA cleavage factor", RNA14 = cf[0]
  VertexId glc7 = gac[0], rna14 = cf[0];
  for (size_t i = 0; i < 8; ++i) g.AddEdge(glc7, cpsf[i]);
  for (size_t i = 1; i < 9; ++i) g.AddEdge(rna14, cpsf[i]);

  PrintGraphSummary("ppi+complexes", g);

  Timer t;
  LabeledGraph lg = LabelFromAttributes(g, complex_of);
  TemplateDetectionResult det = DetectTemplateCliques(lg, BridgeSpec());
  std::printf("Algorithm 4 (attribute Bridge) in %ss: %llu characteristic "
              "+ %llu possible triangles\n\n",
              Fmt(t.Seconds()).c_str(),
              static_cast<unsigned long long>(det.characteristic_triangles),
              static_cast<unsigned long long>(det.possible_triangles));

  DensityPlot plot = BuildDensityPlot(CsrGraph(lg.graph), det.co_clique_size,
                                      /*include_zero_vertices=*/false);
  auto plateaus = FindPlateaus(plot, 5, 3);
  TablePrinter table({10, 8, 8, 44});
  table.Row({"plateau", "height", "width", "proteins (complex)"});
  table.Rule();
  for (size_t i = 0; i < std::min<size_t>(plateaus.size(), 4); ++i) {
    std::string names;
    for (VertexId v : plateaus[i].vertices) {
      names.append("p")
          .append(std::to_string(v))
          .append("(c")
          .append(std::to_string(complex_of[v]))
          .append(") ");
      if (names.size() > 40) break;
    }
    table.Row({"#" + FmtCount(i + 1), FmtCount(plateaus[i].value),
               FmtCount(plateaus[i].end - plateaus[i].begin), names});
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("plateau", i + 1)
                      .Set("height", plateaus[i].value)
                      .Set("width", plateaus[i].end - plateaus[i].begin));
  }
  table.Rule();

  // Story checks: the PRE1 bridge clique {PRE1} U regulator[0..8) reaches
  // co_clique_size 9; PRE1 participates with an inter-complex edge.
  EdgeId pre1_edge = g.FindEdge(pre1, regulator[0]);
  bool bridge1 = det.co_clique_size[pre1_edge] == 9;
  // GLC7's and RNA14's bridge cliques both include >= 7 shared cpsf
  // proteins (the paper's "a lot of overlap vertices").
  EdgeId glc7_edge = g.FindEdge(glc7, cpsf[0]);
  EdgeId rna14_edge = g.FindEdge(rna14, cpsf[8]);
  bool bridges23 = det.co_clique_size[glc7_edge] == 9 &&
                   det.co_clique_size[rna14_edge] == 9;
  std::printf("\nBridge clique 1 (PRE1 + eight 19/22S proteins, height 9): "
              "%s\n",
              bridge1 ? "reproduced" : "NOT reproduced");
  std::printf("Bridge cliques 2 & 3 (GLC7 / RNA14 into the same complex, "
              "overlapping): %s\n",
              bridges23 ? "reproduced" : "NOT reproduced");
  std::printf("PRE1 is the single bridge node between the complexes "
              "(inter-complex degree %u)\n",
              [&] {
                uint32_t d = 0;
                for (const Neighbor& nb : g.Neighbors(pre1)) {
                  d += complex_of[nb.vertex] != complex_of[pre1];
                }
                return d;
              }());

  AsciiChartOptions chart;
  chart.height = 10;
  std::printf("\n%s", RenderAsciiChart(plot, chart).c_str());
  SvgOptions svg;
  svg.title = "Bridge clique distribution across PPI complexes";
  for (size_t i = 0; i < std::min<size_t>(plateaus.size(), 2); ++i) {
    svg.markers.push_back({plateaus[i].begin, plateaus[i].end,
                           i == 0 ? "bridge cliques 2/3" : "bridge clique 1",
                           "#d62728"});
  }
  WriteTextFile(ArtifactDir() + "/fig12_bridge.svg", RenderSvg(plot, svg));

  // Figure 12(b): draw bridge clique 1 plus the rest of its complex, green
  // vs blue complexes, inter-complex edges red.
  {
    DrawOptions draw;
    draw.title = "Bridge clique 1: PRE1 links the two complexes";
    draw.vertex_group = complex_of;
    draw.vertex_label.assign(g.NumVertices(), "");
    draw.vertex_label[pre1] = "PRE1";
    draw.edge_highlight = [&](EdgeId e) {
      Edge ed = g.GetEdge(e);
      return complex_of[ed.u] != complex_of[ed.v];
    };
    std::vector<VertexId> scene = regulator;
    scene.insert(scene.end(), proteasome.begin(), proteasome.end());
    WriteTextFile(ArtifactDir() + "/fig12_bridge1_drawing.svg",
                  DrawSubgraphSvg(g, scene, draw));
  }
  std::printf("\nartifacts: %s/fig12_bridge.svg, fig12_bridge1_drawing.svg\n",
              ArtifactDir().c_str());
  report.Note("bridge1_reproduced", bridge1);
  report.Note("bridges23_reproduced", bridges23);
  return report.Finish((bridge1 && bridges23) ? 0 : 1);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
