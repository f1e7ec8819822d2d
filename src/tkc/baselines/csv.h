#ifndef TKC_BASELINES_CSV_H_
#define TKC_BASELINES_CSV_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"

namespace tkc {

/// Options for the CSV co-clique-size estimator.
struct CsvOptions {
  /// Cap on clique-search nodes per edge neighborhood. CSV remains usable
  /// on mid-size graphs only because of this bound; 0 = exact (exponential
  /// worst case).
  uint64_t clique_node_budget = 50000;
  /// Skip edges whose common neighborhood exceeds this many vertices,
  /// falling back to the Triangle-K-Core-style support bound for them.
  uint32_t max_neighborhood = 256;
};

/// Output of the CSV baseline (Wang et al., SIGMOD 2008): per-edge
/// co_clique_size — the (estimated) size of the largest clique the edge
/// participates in — plus cost counters for the Table II comparison.
struct CsvResult {
  std::vector<uint32_t> co_clique_size;  // per EdgeId; dead ids hold 0
  uint64_t search_nodes = 0;             // total branch-and-bound nodes
  uint64_t estimated_edges = 0;          // edges whose search hit a cap
};

/// Estimates co_clique_size(e) for every live edge by running a pruned
/// max-clique search inside the common neighborhood of e's endpoints
/// (co_clique_size = 2 + ω(G[N(u) ∩ N(v)])). This reproduces the property
/// the paper leans on: CSV computes (nearly) exact clique sizes but pays a
/// per-edge search that dwarfs the single peel of Algorithm 1.
CsvResult ComputeCsv(const CsrGraph& g, const CsvOptions& options = {});

}  // namespace tkc

#endif  // TKC_BASELINES_CSV_H_
