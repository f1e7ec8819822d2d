#ifndef TKC_CORE_HIERARCHY_H_
#define TKC_CORE_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tkc/core/triangle_core.h"
#include "tkc/graph/csr.h"

namespace tkc {

/// One node of the Triangle K-Core hierarchy: a triangle-connected
/// component of the κ >= k subgraph. Children are the denser components it
/// splits into at level k+1 (nesting follows from the monotonicity of κ).
struct HierarchyNode {
  uint32_t k = 0;
  uint32_t parent = UINT32_MAX;       // index into nodes; UINT32_MAX = root
  std::vector<uint32_t> children;     // indices into nodes
  std::vector<EdgeId> edges;          // edges whose peak component this is —
                                      // i.e. κ(e) lies in [k, child levels)
  size_t subtree_edges = 0;           // total edges in this component at k
  size_t subtree_vertices = 0;
};

/// The full nesting structure of Triangle K-Cores across every level — the
/// map a user drills through when exploring a network's dense regions
/// (each Figure 7/12 community is one node of this tree). Levels start at
/// k=1 (the triangle-connected components of the triangle-bearing edges);
/// κ=0 edges belong to no core and map to UINT32_MAX.
struct CoreHierarchy {
  std::vector<HierarchyNode> nodes;
  std::vector<uint32_t> roots;  // node indices with no parent

  /// Index of the deepest (highest-k) node containing edge `e`, or
  /// UINT32_MAX when the edge lies in no triangle.
  uint32_t LeafOf(EdgeId e) const {
    return e < leaf_of_edge_.size() ? leaf_of_edge_[e] : UINT32_MAX;
  }

  std::vector<uint32_t> leaf_of_edge_;  // per EdgeId
};

/// Builds the hierarchy bottom-up from a decomposition. Components are
/// triangle-connected (a chain of triangles whose edges all stay at κ >= k
/// links the member edges). Cost: one triangle-BFS pass per level over the
/// edges at that level.
CoreHierarchy BuildCoreHierarchy(const CsrGraph& g,
                                 const TriangleCoreResult& result);

/// Renders the hierarchy as an indented outline (one line per node with
/// k, component size, and edge counts) for terminal inspection.
std::string HierarchyToString(const CoreHierarchy& hierarchy,
                              size_t max_nodes = 64);

}  // namespace tkc

#endif  // TKC_CORE_HIERARCHY_H_
