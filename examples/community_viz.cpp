// community_viz: probe a social-network-style graph for clique-like
// communities the way Section V uses CSV-style density plots — compute κ,
// plot the clique distribution, list the plateaus, extract and certify the
// corresponding Triangle K-Cores, and write an annotated SVG.
//
// Usage: community_viz [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "tkc/core/core_extraction.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"
#include "tkc/util/timer.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/svg.h"

using namespace tkc;

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2012;
  Rng rng(seed);

  // A scale-free social network with three planted communities of
  // different cohesion.
  Graph network = PowerLawCluster(2000, 3, 0.6, rng);
  auto book_club = PlantRandomClique(network, 12, rng);
  auto team = PlantRandomClique(network, 9, rng);
  auto trio_plus = PlantRandomClique(network, 7, rng);
  // Every analytic below reads one frozen snapshot (EdgeIds carry over).
  const CsrGraph g(network);
  std::printf("network: %u vertices, %zu edges, %llu triangles\n",
              g.NumVertices(), g.NumEdges(),
              static_cast<unsigned long long>(CountTriangles(g)));

  Timer t;
  TriangleCoreResult cores = ComputeTriangleCores(g);
  std::printf("Triangle K-Core decomposition: %.3fs, max kappa = %u\n\n",
              t.Seconds(), cores.max_kappa);

  std::vector<uint32_t> co(g.EdgeCapacity(), 0);
  g.ForEachEdge([&](EdgeId e, const Edge&) { co[e] = cores.kappa[e] + 2; });
  DensityPlot plot = BuildDensityPlot(g, co);

  AsciiChartOptions chart;
  chart.height = 14;
  std::printf("%s\n", RenderAsciiChart(plot, chart).c_str());

  // Walk the plateaus: each is a candidate community; certify it by
  // extracting the maximum Triangle K-Core of one of its edges.
  auto plateaus = FindPlateaus(plot, 6, 4);
  SvgOptions svg;
  svg.title = "community density plot (kappa+2)";
  std::printf("detected clique-like communities:\n");
  for (size_t i = 0; i < plateaus.size() && i < 5; ++i) {
    const PlotPlateau& p = plateaus[i];
    EdgeId seed_edge = kInvalidEdge;
    g.ForEachEdge([&](EdgeId e, const Edge& edge) {
      if (seed_edge != kInvalidEdge) return;
      if (co[e] == p.value &&
          std::find(p.vertices.begin(), p.vertices.end(), edge.u) !=
              p.vertices.end()) {
        seed_edge = e;
      }
    });
    if (seed_edge == kInvalidEdge) continue;
    CoreSubgraph core = MaxTriangleCoreOf(g, cores.kappa, seed_edge);
    bool valid = VerifyTriangleKCore(g, core.edges, core.k);
    bool clique = IsClique(g, core.vertices);
    std::printf("  #%zu: height %u, %zu vertices — certified k=%u core%s%s\n",
                i + 1, p.value, core.vertices.size(), core.k,
                valid ? "" : " (INVALID!)",
                clique ? ", exact clique" : "");
    svg.markers.push_back({p.begin, p.end,
                           "community " + std::to_string(i + 1), "#d62728"});
  }
  (void)book_club;
  (void)team;
  (void)trio_plus;

  WriteTextFile("community_viz.svg", RenderSvg(plot, svg));
  std::printf("\nwrote community_viz.svg\n");
  return 0;
}
