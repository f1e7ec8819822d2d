#include "tkc/verify/nesting.h"

#include <algorithm>
#include <string>

#include "tkc/core/core_extraction.h"
#include "tkc/graph/triangle.h"

namespace tkc::verify {

InvariantCheck CheckHierarchyNesting(const CoreHierarchy& h,
                                     const CsrGraph& g,
                                     const TriangleCoreResult& result) {
  const char* name = "hierarchy.nesting";
  const std::string detail = "nodes=" + std::to_string(h.nodes.size()) +
                             " roots=" + std::to_string(h.roots.size());

  for (uint32_t idx = 0; idx < h.nodes.size(); ++idx) {
    const HierarchyNode& node = h.nodes[idx];
    if (node.parent == UINT32_MAX) {
      if (node.k != 1) {
        return Fail(name, detail,
                    {kInvalidEdge, kInvalidVertex, kInvalidVertex, node.k,
                     node.k, 1, "root node not at level 1"});
      }
      if (std::find(h.roots.begin(), h.roots.end(), idx) == h.roots.end()) {
        return Fail(name, detail,
                    {kInvalidEdge, kInvalidVertex, kInvalidVertex, node.k,
                     idx, 0, "parentless node missing from roots list"});
      }
    } else {
      const HierarchyNode& parent = h.nodes[node.parent];
      if (node.k != parent.k + 1) {
        return Fail(name, detail,
                    {kInvalidEdge, kInvalidVertex, kInvalidVertex, node.k,
                     node.k, parent.k + 1,
                     "child level is not parent level + 1"});
      }
      if (std::find(parent.children.begin(), parent.children.end(), idx) ==
          parent.children.end()) {
        return Fail(name, detail,
                    {kInvalidEdge, kInvalidVertex, kInvalidVertex, node.k,
                     idx, 0, "node missing from its parent's child list"});
      }
      if (node.subtree_vertices > parent.subtree_vertices) {
        return Fail(name, detail,
                    {kInvalidEdge, kInvalidVertex, kInvalidVertex, node.k,
                     node.subtree_vertices, parent.subtree_vertices,
                     "child component has more vertices than its parent"});
      }
    }
    size_t children_edges = 0;
    for (uint32_t child : node.children) {
      children_edges += h.nodes[child].subtree_edges;
    }
    if (node.subtree_edges != node.edges.size() + children_edges) {
      return Fail(name, detail,
                  {kInvalidEdge, kInvalidVertex, kInvalidVertex, node.k,
                   node.subtree_edges, node.edges.size() + children_edges,
                   "subtree edge count does not telescope over children"});
    }
    for (EdgeId e : node.edges) {
      if (!g.IsEdgeAlive(e) || result.kappa[e] != node.k) {
        return Fail(name, detail,
                    {e, kInvalidVertex, kInvalidVertex, node.k,
                     g.IsEdgeAlive(e) ? result.kappa[e] : 0, node.k,
                     "peak edge dead or at the wrong kappa level"});
      }
      if (h.LeafOf(e) != idx) {
        return Fail(name, detail,
                    {e, kInvalidVertex, kInvalidVertex, node.k, h.LeafOf(e),
                     idx, "LeafOf does not point at the peak node"});
      }
    }
  }

  // Every triangle-bearing edge is some node's peak edge; κ=0 edges none's.
  size_t peak_edges = 0;
  for (const HierarchyNode& node : h.nodes) peak_edges += node.edges.size();
  size_t expected_peak = 0;
  Counterexample leaf_ce;
  bool leaves_ok = true;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!leaves_ok) return;
    if (result.kappa[e] >= 1) {
      ++expected_peak;
      if (h.LeafOf(e) == UINT32_MAX) {
        leaf_ce = {e, edge.u, edge.v, result.kappa[e], 0, 1,
                   "triangle-core edge missing from the hierarchy"};
        leaves_ok = false;
      }
    } else if (h.LeafOf(e) != UINT32_MAX) {
      leaf_ce = {e, edge.u, edge.v, 0, h.LeafOf(e), UINT32_MAX,
                 "kappa = 0 edge mapped into the hierarchy"};
      leaves_ok = false;
    }
  });
  if (!leaves_ok) return Fail(name, detail, leaf_ce);
  if (peak_edges != expected_peak) {
    return Fail(name, detail,
                {kInvalidEdge, kInvalidVertex, kInvalidVertex, 0, peak_edges,
                 expected_peak,
                 "peak-edge total disagrees with the kappa >= 1 edge count"});
  }
  return Pass(name, detail);
}

InvariantCheck CheckExtractionNesting(const CsrGraph& g,
                                      const std::vector<uint32_t>& kappa) {
  const char* name = "extraction.nesting";
  uint32_t max_k = 0;
  g.ForEachEdge(
      [&](EdgeId e, const Edge&) { max_k = std::max(max_k, kappa[e]); });
  const std::string detail = "edges=" + std::to_string(g.NumEdges()) +
                             " levels=1.." + std::to_string(max_k + 1);

  std::vector<EdgeId> outer;  // level k-1 member set (level 0 = all edges)
  g.ForEachEdge([&](EdgeId e, const Edge&) { outer.push_back(e); });
  for (uint32_t k = 1; k <= max_k + 1; ++k) {
    CoreSubgraph sub = TriangleKCore(g, kappa, k);
    if (k == max_k + 1 && !sub.edges.empty()) {
      return Fail(name, detail,
                  {sub.edges.front(), kInvalidVertex, kInvalidVertex, k,
                   sub.edges.size(), 0,
                   "nonempty core above the maximum kappa level"});
    }
    for (EdgeId e : sub.edges) {
      if (!std::binary_search(outer.begin(), outer.end(), e)) {
        return Fail(name, detail,
                    {e, kInvalidVertex, kInvalidVertex, k, k, k - 1,
                     "level-k core edge missing from the level-(k-1) core"});
      }
    }
    // Definition 3 by direct recount inside the member set.
    std::vector<uint8_t> member(g.EdgeCapacity(), 0);
    for (EdgeId e : sub.edges) member[e] = 1;
    for (EdgeId e : sub.edges) {
      uint32_t inside = 0;
      ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
        if (member[e1] != 0 && member[e2] != 0) ++inside;
      });
      if (inside < k) {
        Edge edge = g.GetEdge(e);
        return Fail(name, detail,
                    {e, edge.u, edge.v, k, inside, k,
                     "extracted core edge keeps fewer than k triangles "
                     "inside the extraction"});
      }
    }
    outer = std::move(sub.edges);
  }
  return Pass(name, detail);
}

}  // namespace tkc::verify
