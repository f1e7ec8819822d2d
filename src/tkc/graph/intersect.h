#ifndef TKC_GRAPH_INTERSECT_H_
#define TKC_GRAPH_INTERSECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "tkc/graph/graph.h"

namespace tkc {

/// Work counters for one batch of sorted-adjacency intersections, one
/// field per regime so the cutoff is measurable: `merge_steps` counts loop
/// iterations of the linear two-pointer merge (MergeNeighbors) and
/// `gallop_probes` counts element comparisons of the exponential-search
/// path. Their sum is the actual intersection work — the value reported as
/// `triangle.wedges_examined` (the old min-degree estimate over-charged
/// oriented passes, which intersect out-lists far shorter than the full
/// adjacency).
struct IntersectStats {
  uint64_t merge_steps = 0;
  uint64_t gallop_probes = 0;

  uint64_t Total() const { return merge_steps + gallop_probes; }

  IntersectStats& operator+=(const IntersectStats& o) {
    merge_steps += o.merge_steps;
    gallop_probes += o.gallop_probes;
    return *this;
  }
};

/// Length-ratio cutoff between the two intersection regimes: when one list
/// is more than this factor longer than the other, per-element galloping
/// binary search over the long list beats the linear merge (which would
/// walk every entry of the long list). 16 ≈ where log2(long) probes per
/// short element undercut the merge's long-list scan on the generated
/// power-law datasets; tune against the `triangle.merge_steps` /
/// `triangle.gallop_probes` counters (docs/performance.md).
inline constexpr size_t kGallopCutoffRatio = 16;

namespace detail {

/// First element of [first, last) with vertex >= x, located by exponential
/// probing from the front followed by binary search — O(log distance)
/// instead of O(distance), which is the whole point when the caller walks a
/// short list against a long one. Comparison count is added to `probes`.
inline const Neighbor* GallopLowerBound(const Neighbor* first,
                                        const Neighbor* last, VertexId x,
                                        uint64_t& probes) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0) return first;
  ++probes;
  if (first[0].vertex >= x) return first;
  size_t bound = 1;
  while (bound < n && first[bound].vertex < x) {
    ++probes;
    bound <<= 1;
  }
  size_t lo = bound >> 1;          // first[lo].vertex < x
  size_t hi = std::min(bound, n);  // first[hi].vertex >= x, or hi == n
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (first[mid].vertex < x) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return first + hi;
}

/// Skewed-path intersection: walks the short list, galloping through the
/// long one. `swapped` restores the caller's (first-list edge, second-list
/// edge) argument order when the short list was the caller's second range.
template <typename Fn>
void IntersectGallop(const Neighbor* short_begin, const Neighbor* short_end,
                     const Neighbor* long_begin, const Neighbor* long_end,
                     bool swapped, IntersectStats& stats, Fn&& fn) {
  const Neighbor* pos = long_begin;
  for (const Neighbor* s = short_begin; s != short_end; ++s) {
    pos = GallopLowerBound(pos, long_end, s->vertex, stats.gallop_probes);
    if (pos == long_end) return;
    if (pos->vertex == s->vertex) {
      if (swapped) {
        fn(s->vertex, pos->edge, s->edge);
      } else {
        fn(s->vertex, s->edge, pos->edge);
      }
      ++pos;
    }
  }
}

}  // namespace detail

/// Intersects two sorted adjacency ranges, invoking
/// `fn(VertexId w, EdgeId ea, EdgeId eb)` per common vertex, where `ea`
/// comes from the [ab, ae) range and `eb` from [bb, be). Chooses linear
/// merge for comparable lengths and galloping search when one range is
/// over `gallop_cutoff` times longer (default kGallopCutoffRatio; the
/// parameter exists so tests and bench_micro can sweep the knob); actual
/// work lands in `stats`.
template <typename Fn>
void IntersectSortedHybrid(const Neighbor* ab, const Neighbor* ae,
                           const Neighbor* bb, const Neighbor* be,
                           IntersectStats& stats, Fn&& fn,
                           size_t gallop_cutoff = kGallopCutoffRatio) {
  const size_t la = static_cast<size_t>(ae - ab);
  const size_t lb = static_cast<size_t>(be - bb);
  if (la == 0 || lb == 0) return;
  if (la > lb * gallop_cutoff) {
    detail::IntersectGallop(bb, be, ab, ae, /*swapped=*/true, stats, fn);
    return;
  }
  if (lb > la * gallop_cutoff) {
    detail::IntersectGallop(ab, ae, bb, be, /*swapped=*/false, stats, fn);
    return;
  }
  stats.merge_steps += MergeNeighbors(ab, ae, bb, be, fn);
}

/// Common-neighbor query on the hot paths (ForEachTriangleOnEdge, the
/// peel's index-free fallback): IntersectSortedHybrid over the adjacency of
/// `u` and `v`. GraphT is anything exposing Neighbors(v) as a contiguous
/// range of Neighbor (Graph, CsrGraph, DeltaCsr).
template <typename GraphT, typename Fn>
void IntersectNeighbors(const GraphT& g, VertexId u, VertexId v, Fn&& fn) {
  const auto& a = g.Neighbors(u);
  const auto& b = g.Neighbors(v);
  const Neighbor* ab = std::to_address(a.begin());
  const Neighbor* bb = std::to_address(b.begin());
  IntersectStats stats;
  IntersectSortedHybrid(ab, ab + a.size(), bb, bb + b.size(), stats,
                        std::forward<Fn>(fn));
}

}  // namespace tkc

#endif  // TKC_GRAPH_INTERSECT_H_
