#include "tkc/core/clique_probe.h"

#include <algorithm>

#include "tkc/baselines/naive.h"
#include "tkc/core/core_extraction.h"

namespace tkc {

std::vector<VertexId> CoreGuidedMaxClique(const Graph& g,
                                          uint64_t node_budget,
                                          CliqueProbeStats* stats) {
  CliqueProbeStats local;
  const CsrGraph csr(g);
  TriangleCoreResult cores = ComputeTriangleCores(csr);
  std::vector<VertexId> best;
  // Any edge at all is a 2-clique; a triangle a 3-clique. Seed the
  // incumbent so trivial graphs return correct answers.
  g.ForEachEdge([&](EdgeId, const Edge& edge) {
    if (best.empty()) best = {edge.u, edge.v};
  });
  if (g.NumVertices() > 0 && best.empty()) best = {0};

  for (uint32_t k = cores.max_kappa; k >= 1; --k) {
    // Level bound: cliques found at this level have size <= k+2; stop when
    // the incumbent already meets it.
    if (best.size() >= static_cast<size_t>(k) + 2) break;
    ++local.levels_searched;
    for (const CoreSubgraph& core :
         TriangleConnectedCores(csr, cores.kappa, k)) {
      // Skip interiors already covered by a higher level: only search
      // components whose peak is exactly k.
      bool peak = false;
      for (EdgeId e : core.edges) peak = peak || cores.kappa[e] == k;
      if (!peak || core.vertices.size() < best.size() + 1) continue;
      ++local.cores_searched;
      local.vertices_searched += core.vertices.size();
      // Induced subgraph on the component's vertices.
      Graph induced(static_cast<VertexId>(core.vertices.size()));
      for (size_t i = 0; i < core.vertices.size(); ++i) {
        for (size_t j = i + 1; j < core.vertices.size(); ++j) {
          if (csr.HasEdge(core.vertices[i], core.vertices[j])) {
            induced.AddEdge(static_cast<VertexId>(i),
                            static_cast<VertexId>(j));
          }
        }
      }
      bool exact = true;
      std::vector<VertexId> found = MaxClique(induced, node_budget, &exact);
      local.exact = local.exact && exact;
      if (found.size() > best.size()) {
        best.clear();
        for (VertexId idx : found) best.push_back(core.vertices[idx]);
      }
    }
  }
  std::sort(best.begin(), best.end());
  if (stats != nullptr) *stats = local;
  return best;
}

}  // namespace tkc
