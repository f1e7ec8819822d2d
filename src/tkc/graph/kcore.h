#ifndef TKC_GRAPH_KCORE_H_
#define TKC_GRAPH_KCORE_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"

namespace tkc {

/// Classic K-Core decomposition (Batagelj–Zaversnik bucket peeling), the
/// vertex-level analogue the paper contrasts Triangle K-Cores against
/// (Definitions 1–2, Figure 1). Runs in O(|V| + |E|).
///
/// `core_of[v]` is the maximum K-Core number of vertex v: the largest k such
/// that v belongs to a subgraph in which every vertex has degree >= k.
struct KCoreResult {
  std::vector<uint32_t> core_of;   // indexed by VertexId
  uint32_t max_core = 0;
  /// Vertices in the order they were peeled (increasing core number); the
  /// reverse of a degeneracy ordering.
  std::vector<VertexId> peel_order;
};

KCoreResult ComputeKCores(const CsrGraph& g);

/// Vertices of the maximal subgraph with minimum degree >= k (the k-core).
std::vector<VertexId> KCoreMembers(const KCoreResult& r, uint32_t k);

}  // namespace tkc

#endif  // TKC_GRAPH_KCORE_H_
