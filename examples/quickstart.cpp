// Quickstart: the five-minute tour of the library.
//   1. build a graph           2. run Algorithm 1 (κ per edge)
//   3. extract an edge's maximum Triangle K-Core (Definition 4)
//   4. maintain κ incrementally under edge changes (Algorithm 2)
//   5. render a density plot in the terminal
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "tkc/core/core_extraction.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/density_plot.h"

using namespace tkc;

int main() {
  // 1. The paper's Figure 2 example graph: A..E = 0..4.
  Graph g = PaperFigure2Graph();
  std::printf("Figure 2 graph: %u vertices, %zu edges\n", g.NumVertices(),
              g.NumEdges());

  // 2. Static decomposition (Algorithm 1): κ(e) = maximum Triangle K-Core
  // number of each edge; co_clique_size(e) = κ(e)+2 approximates the
  // largest clique the edge participates in. The analytics read a frozen
  // snapshot of the graph, which keeps its EdgeIds.
  const CsrGraph csr(g);
  TriangleCoreResult cores = ComputeTriangleCores(csr);
  const char* names = "ABCDE";
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    std::printf("  kappa(%c%c) = %u  (co-clique estimate %u)\n",
                names[edge.u], names[edge.v], cores.kappa[e],
                cores.CocliqueSize(e));
  });

  // 3. The maximum Triangle K-Core of edge DE: the 4 vertices B,C,D,E.
  EdgeId de = g.FindEdge(3, 4);
  CoreSubgraph core = MaxTriangleCoreOf(csr, cores.kappa, de);
  std::printf("max Triangle K-Core of DE: k=%u, %zu vertices, %zu edges\n",
              core.k, core.vertices.size(), core.edges.size());

  // 4. Dynamic maintenance (Algorithm 2): drop an edge, κ updates locally.
  DynamicTriangleCore dyn{DeltaCsr(g)};
  dyn.RemoveEdge(1, 2);  // remove BC
  std::printf("after removing BC: kappa(DE) = %u (touched %llu edges)\n",
              dyn.KappaOf(de),
              static_cast<unsigned long long>(
                  dyn.last_update_stats().candidate_edges));
  dyn.InsertEdge(1, 2);  // put it back
  std::printf("after re-inserting BC: kappa(DE) = %u\n", dyn.KappaOf(de));

  // 5. Density plot of a larger graph with a hidden 8-clique.
  Rng rng(7);
  Graph big = GnmRandom(120, 220, rng);
  PlantRandomClique(big, 8, rng);
  const CsrGraph big_csr(big);
  TriangleCoreResult big_cores = ComputeTriangleCores(big_csr);
  std::vector<uint32_t> co(big_csr.EdgeCapacity(), 0);
  big_csr.ForEachEdge([&](EdgeId e, const Edge&) {
    co[e] = big_cores.kappa[e] + 2;
  });
  DensityPlot plot = BuildDensityPlot(big_csr, co);
  AsciiChartOptions opt;
  opt.height = 10;
  std::printf("\ndensity plot (the 8-high plateau is the planted clique):\n%s",
              RenderAsciiChart(plot, opt).c_str());
  return 0;
}
