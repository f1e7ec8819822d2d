#ifndef TKC_CORE_ANALYSIS_CONTEXT_H_
#define TKC_CORE_ANALYSIS_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tkc/core/triangle_index.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/graph.h"
#include "tkc/util/thread_annotations.h"

namespace tkc {

/// The unified read path for every static analysis: a frozen CsrGraph
/// snapshot plus the derived data the algorithms share — the per-edge
/// triangle-support array and (on demand) the triangle-partner index the
/// peel reads. Both are computed lazily, at most once per context, by the
/// parallel oriented enumeration (one enumeration for both when the index
/// is asked for first); the `analysis.support_computations` /
/// `analysis.triangle_index_builds` counters make "computed once"
/// checkable in tests.
///
/// EdgeIds are inherited from the source Graph unchanged, so κ/order/support
/// arrays produced against a context index that Graph, and a DeltaCsr built
/// from it, alike.
///
/// Thread-safe for concurrent readers (lazy initialization is locked); the
/// snapshot itself is immutable.
class AnalysisContext {
 public:
  /// Freezes `g`. `threads` follows the ResolveThreads convention
  /// (0 = process default from SetDefaultThreads/--threads, 1 = serial);
  /// every derived result is identical for every thread count.
  explicit AnalysisContext(const Graph& g, int threads = 0);

  /// Adopts an existing snapshot.
  explicit AnalysisContext(CsrGraph csr, int threads = 0);

  /// Shares an existing snapshot without copying it — the zero-copy
  /// handoff the versioned engine uses: the engine's DeltaCsr base and
  /// every AnalysisContext of that epoch point at the same CSR arrays.
  explicit AnalysisContext(std::shared_ptr<const CsrGraph> csr,
                           int threads = 0);

  const CsrGraph& csr() const { return *csr_; }

  /// The underlying shared snapshot (always non-null).
  const std::shared_ptr<const CsrGraph>& csr_ptr() const { return csr_; }

  int threads() const { return threads_; }

  /// Per-edge triangle supports, indexed by EdgeId (dead ids hold 0).
  /// Computed on first use by the shared parallel kernel, then cached.
  const std::vector<uint32_t>& Supports() const;

  /// The edge → triangle-partner index. Built on first use from one
  /// parallel oriented enumeration, then cached; identical for every
  /// thread count. On a context whose supports are not yet computed, the
  /// same build fills the support cache, so asking for the index first
  /// enumerates the triangles once in all.
  const TrianglePartnerIndex& TriangleIndex() const;

  /// Total triangle count (= sum of supports / 3); forces Supports().
  uint64_t TriangleCount() const;

  /// Largest per-edge support (0 on triangle-free graphs); forces
  /// Supports().
  uint32_t MaxSupport() const;

 private:
  // Fills the support cache and its totals (with the L2 recount check).
  void CacheSupports(std::vector<uint32_t> supports) const TKC_REQUIRES(mu_);

  std::shared_ptr<const CsrGraph> csr_;
  int threads_;
  // Lazy caches: filled at most once, under mu_. The references Supports()
  // and TriangleIndex() return outlive the critical section on purpose —
  // once a cache is filled it is never mutated again, so
  // post-initialization readers need no lock (the fill happens-before the
  // return that handed them the reference).
  mutable Mutex mu_;
  mutable std::optional<std::vector<uint32_t>> supports_ TKC_GUARDED_BY(mu_);
  mutable std::optional<TrianglePartnerIndex> triangle_index_
      TKC_GUARDED_BY(mu_);
  mutable uint64_t triangle_count_ TKC_GUARDED_BY(mu_) = 0;
  mutable uint32_t max_support_ TKC_GUARDED_BY(mu_) = 0;
};

}  // namespace tkc

#endif  // TKC_CORE_ANALYSIS_CONTEXT_H_
