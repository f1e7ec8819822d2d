#include "tkc/core/hierarchy.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "tkc/graph/triangle.h"
#include "tkc/util/check.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/nesting.h"
#endif

namespace tkc {

CoreHierarchy BuildCoreHierarchy(const CsrGraph& g,
                                 const TriangleCoreResult& result) {
  CoreHierarchy h;
  h.leaf_of_edge_.assign(g.EdgeCapacity(), UINT32_MAX);
  const uint32_t max_k = MaxKappa(g, result);
  if (max_k == 0) return h;

  // Node index per edge at the previous / current level. Every edge with
  // κ >= 1 belongs to exactly one triangle-connected component per level
  // k <= κ(e) (levels start at 1; κ=0 edges join no core).
  std::vector<uint32_t> prev_node(g.EdgeCapacity(), UINT32_MAX);
  std::vector<uint32_t> cur_node(g.EdgeCapacity(), UINT32_MAX);

  std::vector<VertexId> vertex_scratch;
  for (uint32_t k = 1; k <= max_k; ++k) {
    std::fill(cur_node.begin(), cur_node.end(), UINT32_MAX);
    g.ForEachEdge([&](EdgeId seed, const Edge&) {
      if (result.kappa[seed] < k || cur_node[seed] != UINT32_MAX) return;

      const uint32_t idx = static_cast<uint32_t>(h.nodes.size());
      h.nodes.emplace_back();
      HierarchyNode& node = h.nodes.back();
      node.k = k;
      node.parent = (k == 1) ? UINT32_MAX : prev_node[seed];
      if (node.parent == UINT32_MAX) {
        h.roots.push_back(idx);
      } else {
        h.nodes[node.parent].children.push_back(idx);
      }

      // Triangle-BFS inside the κ >= k subgraph.
      vertex_scratch.clear();
      std::deque<EdgeId> queue{seed};
      cur_node[seed] = idx;
      size_t comp_edges = 0;
      while (!queue.empty()) {
        EdgeId e = queue.front();
        queue.pop_front();
        ++comp_edges;
        Edge ed = g.GetEdge(e);
        vertex_scratch.push_back(ed.u);
        vertex_scratch.push_back(ed.v);
        if (result.kappa[e] == k) {
          node.edges.push_back(e);
          h.leaf_of_edge_[e] = idx;
        }
        ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
          if (result.kappa[e1] < k || result.kappa[e2] < k) return;
          for (EdgeId f : {e1, e2}) {
            if (cur_node[f] == UINT32_MAX) {
              cur_node[f] = idx;
              queue.push_back(f);
            }
          }
        });
      }
      node.subtree_edges = comp_edges;
      std::sort(vertex_scratch.begin(), vertex_scratch.end());
      node.subtree_vertices = std::unique(vertex_scratch.begin(),
                                          vertex_scratch.end()) -
                              vertex_scratch.begin();
      std::sort(node.edges.begin(), node.edges.end());
    });
    prev_node.swap(cur_node);
  }
  TKC_VERIFY_L2(verify::CheckOrDie(
      verify::CheckHierarchyNesting(h, g, result), "BuildCoreHierarchy"));
  return h;
}

namespace {

void AppendNode(const CoreHierarchy& h, uint32_t idx, int depth,
                size_t max_nodes, size_t* printed, std::ostringstream* out) {
  if (*printed >= max_nodes) return;
  ++*printed;
  const HierarchyNode& node = h.nodes[idx];
  *out << std::string(static_cast<size_t>(depth) * 2, ' ') << "k=" << node.k
       << "  vertices=" << node.subtree_vertices
       << "  edges=" << node.subtree_edges
       << "  peak-edges=" << node.edges.size() << '\n';
  for (uint32_t child : node.children) {
    AppendNode(h, child, depth + 1, max_nodes, printed, out);
  }
}

}  // namespace

std::string HierarchyToString(const CoreHierarchy& hierarchy,
                              size_t max_nodes) {
  std::ostringstream out;
  size_t printed = 0;
  for (uint32_t root : hierarchy.roots) {
    AppendNode(hierarchy, root, 0, max_nodes, &printed, &out);
  }
  if (printed >= max_nodes && hierarchy.nodes.size() > max_nodes) {
    out << "... (" << hierarchy.nodes.size() - printed << " more nodes)\n";
  }
  return out.str();
}

}  // namespace tkc
