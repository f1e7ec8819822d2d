#ifndef TKC_BASELINES_DN_GRAPH_H_
#define TKC_BASELINES_DN_GRAPH_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"

namespace tkc {

class AnalysisContext;

/// Output of the DN-Graph λ estimators (Wang et al., VLDB 2010), the
/// paper's main quality-equivalent competitor (Section VI).
struct DnGraphResult {
  /// Converged valid-λ̃(e) per EdgeId. Section VI's Claim 3 proves this
  /// equals κ(e); the test suite enforces it.
  std::vector<uint32_t> lambda;
  /// Full passes over the edge set until fixpoint.
  uint32_t iterations = 0;
  /// Total per-edge refinement steps (cost proxy reported in Table II).
  uint64_t edge_updates = 0;
};

/// TriDN: iterative refinement of the λ̃ upper bound. Initialized to the
/// common-neighbor count, then synchronized passes lower each edge's λ̃ by
/// one whenever fewer than λ̃(e) neighbors support it (Definition 5: w
/// supports λ̃(u,v) iff min(λ̃(u,w), λ̃(v,w)) >= λ̃(u,v)). The unit-step
/// decrement is what makes TriDN take many passes on large graphs (66 on
/// Flickr per the paper) — the cost profile Table II reports.
///
/// λ̃ is seeded from the context's cached support array, and the
/// synchronous passes fan out over ctx.threads() workers (each pass reads
/// only the previous iteration's values, so the result is bit-for-bit
/// identical at any thread count). `max_iterations` = 0 means run to
/// convergence.
DnGraphResult TriDn(const AnalysisContext& ctx, uint32_t max_iterations = 0);

/// BiTriDN: the improved variant — each pass jumps an edge's λ̃ directly to
/// the largest value its neighborhood currently supports (a bisection-style
/// shortcut over TriDN's unit steps), converging in far fewer passes while
/// reaching the same fixpoint.
DnGraphResult BiTriDn(const AnalysisContext& ctx,
                      uint32_t max_iterations = 0);

/// A candidate DN-Graph: a triangle-connected λ-level community, flagged
/// with the local-maximality test of the DN-Graph definition's
/// requirement (2).
struct DnGraphCandidate {
  uint32_t lambda = 0;
  std::vector<VertexId> vertices;
  std::vector<EdgeId> edges;
  /// True when no outside vertex can join without lowering λ and no inside
  /// vertex can leave without breaking requirement (1) for the rest.
  bool locally_maximal = false;
};

/// Extracts DN-Graph candidates from converged λ values (= κ, by Claim 3):
/// for each level, the triangle-connected components of the λ >= k
/// subgraph whose *peak* is k. Exposes Section VI's coverage problem — a
/// vertex incident only to λ = 0 edges belongs to no DN-Graph (Figure 5's
/// vertex A).
std::vector<DnGraphCandidate> ExtractDnGraphs(
    const CsrGraph& g, const std::vector<uint32_t>& lambda,
    uint32_t min_lambda = 1);

/// Per-vertex coverage: true iff the vertex appears in some candidate with
/// λ >= min_lambda.
std::vector<bool> DnGraphCoverage(const CsrGraph& g,
                                  const std::vector<uint32_t>& lambda,
                                  uint32_t min_lambda = 1);

}  // namespace tkc

#endif  // TKC_BASELINES_DN_GRAPH_H_
