#ifndef TKC_CORE_TRIANGLE_CORE_H_
#define TKC_CORE_TRIANGLE_CORE_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/graph.h"

namespace tkc {

/// Rank value meaning "edge was never processed" (dead edge id).
inline constexpr uint32_t kInvalidOrder = UINT32_MAX;

/// How Algorithm 1 obtains the triangles incident to an edge during the
/// peel (Section IV-A, last paragraph of the correctness discussion):
enum class TriangleStorageMode {
  /// Read them from the context's flat edge → triangle-partner index
  /// (core/triangle_index.h, 3 entries per triangle), built once up front.
  /// Fastest, O(|Tri|) extra memory; the default.
  kStoreTriangles,
  /// Re-intersect adjacency lists when an edge is processed; triangles are
  /// recognized as unprocessed by their edges' peel ranks.
  /// The paper's O(|E|)-memory mode for graphs whose triangle set does not
  /// fit in memory.
  kRecomputeTriangles,
};

/// Output of the static decomposition (Algorithm 1).
struct TriangleCoreResult {
  /// κ(e): the maximum Triangle K-Core number of each edge, indexed by
  /// EdgeId (dead ids hold 0 and order kInvalidOrder).
  std::vector<uint32_t> kappa;
  /// Processing rank of each edge — the paper's `e.order`, used by Rule 1
  /// and by the dynamic update algorithms. Lower rank = peeled earlier.
  std::vector<uint32_t> order;
  /// Edges in the order they were processed: non-decreasing κ, and
  /// increasing EdgeId within each sub-round of the peel.
  std::vector<EdgeId> peel_sequence;
  uint32_t max_kappa = 0;
  uint64_t triangle_count = 0;

  /// The paper's clique-size proxy: co_clique_size(e) = κ(e) + 2.
  uint32_t CocliqueSize(EdgeId e) const { return kappa[e] + 2; }
};

/// Algorithm 1: computes κ(e) for every live edge of `g` by peeling edges in
/// increasing order of their remaining triangle count κ̃, level by level.
/// Level k peels every unpeeled edge at κ̃ = k in sub-rounds: a sub-round
/// peels its whole frontier at once and walks the frontier's triangles on
/// the context's threads, lowering the partners' κ̃ (never below k); the
/// edges that reach k are the next sub-round's frontier. Total cost is
/// O(triangle-listing + |Tri|) plus one pass over the unpeeled edges per
/// level. Every overload freezes (or borrows) a snapshot and runs the
/// AnalysisContext overload. κ, `order` and `peel_sequence` are identical
/// across overloads, storage modes and thread counts.
///
/// The Graph overload freezes `g` first. It stays only because the
/// benchmark (perfbench/layers.cc) calls it; library code freezes itself.
// tkc-lint: allow(graph-twin) -- perfbench/layers.cc calls this overload.
TriangleCoreResult ComputeTriangleCores(
    const Graph& g,
    TriangleStorageMode mode = TriangleStorageMode::kStoreTriangles);

/// Same peel over a frozen CSR snapshot, read in place (no copy).
TriangleCoreResult ComputeTriangleCores(
    const CsrGraph& g,
    TriangleStorageMode mode = TriangleStorageMode::kStoreTriangles);

class DeltaCsr;

/// Same peel over the engine's DeltaCsr overlay view (base CSR + pending
/// edits; a clean view peels its base in place, a dirty one is frozen
/// first). This is the scratch-recompute reference the batched maintainer
/// is differentially tested against, and the initializer the engine uses
/// when adopting a view whose decomposition is unknown.
TriangleCoreResult ComputeTriangleCores(
    const DeltaCsr& g,
    TriangleStorageMode mode = TriangleStorageMode::kStoreTriangles);

class AnalysisContext;

/// Same peel over a shared AnalysisContext: the initial κ̃ comes from the
/// context's cached support array and, in kStoreTriangles mode, the
/// triangles from its cached partner index — each computed once per
/// context by the parallel oriented enumeration, so repeated
/// decompositions and other consumers never recount.
TriangleCoreResult ComputeTriangleCores(
    const AnalysisContext& ctx,
    TriangleStorageMode mode = TriangleStorageMode::kStoreTriangles);

/// Largest κ over live edges of a precomputed result (0 on empty graphs).
uint32_t MaxKappa(const CsrGraph& g, const TriangleCoreResult& r);

}  // namespace tkc

#endif  // TKC_CORE_TRIANGLE_CORE_H_
