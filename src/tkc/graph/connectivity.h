#ifndef TKC_GRAPH_CONNECTIVITY_H_
#define TKC_GRAPH_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"

namespace tkc {

/// Connected-component labeling.
struct ComponentResult {
  /// Component id per vertex; isolated vertices get their own component.
  std::vector<uint32_t> component_of;
  uint32_t num_components = 0;
};

ComponentResult ConnectedComponents(const CsrGraph& g);

/// True iff `u` and `v` are in the same connected component of `g`.
/// Convenience wrapper (one BFS); use ConnectedComponents for bulk queries.
bool SameComponent(const CsrGraph& g, VertexId u, VertexId v);

/// Vertices reachable from `start` (including `start`).
std::vector<VertexId> ReachableFrom(const CsrGraph& g, VertexId start);

}  // namespace tkc

#endif  // TKC_GRAPH_CONNECTIVITY_H_
