#include "tkc/baselines/csv.h"

#include <algorithm>

#include "tkc/baselines/naive.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"

namespace tkc {

CsvResult ComputeCsv(const CsrGraph& g, const CsvOptions& options) {
  TKC_SPAN("baseline.csv");
  CsvResult result;
  result.co_clique_size.assign(g.EdgeCapacity(), 0);

  std::vector<VertexId> union_nb;
  std::vector<uint32_t> connectivity;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    // Common neighborhood of the endpoints: every clique containing the
    // edge lives inside it.
    std::vector<VertexId> common;
    g.ForEachCommonNeighbor(edge.u, edge.v,
                            [&](VertexId w, EdgeId, EdgeId) {
                              common.push_back(w);
                            });
    if (common.empty()) {
      result.co_clique_size[e] = 2;
      return;
    }
    if (common.size() > options.max_neighborhood) {
      // Fall back to the support bound on pathological hubs; counted so the
      // harness can report how often CSV had to give up.
      ++result.estimated_edges;
      result.co_clique_size[e] = 2 + static_cast<uint32_t>(common.size());
      return;
    }

    // CSV's neighborhood-mapping phase: every vertex of N(u) ∪ N(v) is
    // scored by its connectivity inside the neighborhood (the original maps
    // vertices into a feature space built from exactly this local
    // structure). The scores order the branch-and-bound and prune common
    // neighbors that cannot reach the incumbent clique. This phase, run
    // per edge, dominates CSV's cost — the gap Table II reports.
    union_nb.clear();
    {
      const auto& nu = g.Neighbors(edge.u);
      const auto& nv = g.Neighbors(edge.v);
      size_t i = 0, j = 0;
      while (i < nu.size() || j < nv.size()) {
        VertexId a = i < nu.size() ? nu[i].vertex : kInvalidVertex;
        VertexId b = j < nv.size() ? nv[j].vertex : kInvalidVertex;
        if (a < b) {
          union_nb.push_back(a);
          ++i;
        } else if (b < a) {
          union_nb.push_back(b);
          ++j;
        } else {
          union_nb.push_back(a);
          ++i;
          ++j;
        }
      }
    }
    connectivity.assign(union_nb.size(), 0);
    for (size_t i = 0; i < union_nb.size(); ++i) {
      // |N(w) ∩ union| via sorted two-pointer intersection.
      const auto& nw = g.Neighbors(union_nb[i]);
      size_t a = 0, b = 0;
      while (a < nw.size() && b < union_nb.size()) {
        if (nw[a].vertex < union_nb[b]) {
          ++a;
        } else if (nw[a].vertex > union_nb[b]) {
          ++b;
        } else {
          ++connectivity[i];
          ++a;
          ++b;
        }
      }
      result.search_nodes += nw.size();
    }

    // Keep only common neighbors whose mapped connectivity can still form
    // a triangle-rich clique region, ordered densest-first.
    std::vector<std::pair<uint32_t, VertexId>> ranked;
    for (VertexId w : common) {
      auto it = std::lower_bound(union_nb.begin(), union_nb.end(), w);
      uint32_t score = connectivity[it - union_nb.begin()];
      ranked.emplace_back(score, w);
    }
    std::sort(ranked.begin(), ranked.end(), std::greater<>());

    // Induced subgraph on the (ordered) common neighborhood, ids remapped
    // to 0..c-1.
    Graph induced(static_cast<VertexId>(ranked.size()));
    for (size_t i = 0; i < ranked.size(); ++i) {
      for (size_t j = i + 1; j < ranked.size(); ++j) {
        if (g.HasEdge(ranked[i].second, ranked[j].second)) {
          induced.AddEdge(static_cast<VertexId>(i),
                          static_cast<VertexId>(j));
        }
      }
    }
    bool exact = true;
    std::vector<VertexId> best =
        MaxClique(induced, options.clique_node_budget, &exact);
    if (!exact) ++result.estimated_edges;
    result.search_nodes +=
        ranked.size() * ranked.size() + (exact ? best.size() : 0);
    uint32_t omega = static_cast<uint32_t>(std::max<size_t>(best.size(), 1));
    result.co_clique_size[e] = 2 + omega;
  });
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("baseline.csv.search_nodes").Add(result.search_nodes);
  registry.GetCounter("baseline.csv.estimated_edges")
      .Add(result.estimated_edges);
  TKC_SPAN_COUNTER("search_nodes", result.search_nodes);
  TKC_SPAN_COUNTER("estimated_edges", result.estimated_edges);
  return result;
}

}  // namespace tkc
