#include "tkc/viz/dual_view.h"

#include <algorithm>

#include "tkc/core/analysis_context.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/triangle_core.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/util/check.h"

namespace tkc {

DualViewResult BuildDualView(const Graph& old_graph,
                             const std::vector<EdgeEvent>& additions) {
  DualViewResult result;

  // Steps 1-3: κ and plot(a) on the original graph. One frozen snapshot
  // serves the peel, plot(a) and the maintainer's k-order below.
  DeltaCsr view(old_graph);
  const AnalysisContext ctx(view.base_ptr());
  TriangleCoreResult old_cores = ComputeTriangleCores(ctx);
  result.old_kappa = old_cores.kappa;
  std::vector<uint32_t> old_co(ctx.csr().EdgeCapacity(), 0);
  ctx.csr().ForEachEdge([&](EdgeId e, const Edge&) {
    old_co[e] = old_cores.kappa[e] + 2;
  });
  result.before = BuildDensityPlot(ctx.csr(), old_co);

  // Step 4: apply additions through the incremental updater, as one batch.
  DynamicTriangleCore dyn(std::move(view), std::move(old_cores),
                          ctx.TriangleIndex());
  for (const EdgeEvent& ev : additions) {
    TKC_CHECK_MSG(ev.kind == EdgeEvent::Kind::kInsert,
                  "dual view handles edge additions");
  }
  result.update_stats = dyn.ApplyBatch(additions).work;
  std::vector<EdgeId> new_edges;
  for (const EdgeEvent& ev : additions) {
    new_edges.push_back(dyn.graph().FindEdge(ev.u, ev.v));
  }

  // Steps 5-6: plot(b) from new-edge co_clique_size only. Old edges get 0,
  // so only the changed clique structure shows.
  result.new_graph = dyn.Compact();
  result.new_kappa = dyn.kappa();
  const CsrGraph& new_graph = *result.new_graph;
  std::vector<uint32_t> new_co(new_graph.EdgeCapacity(), 0);
  for (EdgeId e : new_edges) {
    if (new_graph.IsEdgeAlive(e)) {
      new_co[e] = result.new_kappa[e] + 2;
    }
  }
  result.after = BuildDensityPlot(new_graph, new_co,
                                  /*include_zero_vertices=*/false);
  return result;
}

Correspondence LocateInBefore(const DualViewResult& dual,
                              const std::vector<VertexId>& selected,
                              size_t cluster_gap) {
  Correspondence corr;
  corr.positions_in_before.reserve(selected.size());
  std::vector<std::pair<int64_t, VertexId>> located;
  for (VertexId v : selected) {
    int64_t pos = dual.before.PositionOf(v);
    corr.positions_in_before.push_back(pos);
    if (pos >= 0) located.emplace_back(pos, v);
  }
  std::sort(located.begin(), located.end());
  for (size_t i = 0; i < located.size();) {
    std::vector<VertexId> cluster{located[i].second};
    size_t j = i + 1;
    while (j < located.size() &&
           located[j].first - located[j - 1].first <=
               static_cast<int64_t>(cluster_gap)) {
      cluster.push_back(located[j].second);
      ++j;
    }
    corr.clusters.push_back(std::move(cluster));
    i = j;
  }
  return corr;
}

}  // namespace tkc
