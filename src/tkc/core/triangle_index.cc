#include "tkc/core/triangle_index.h"

#include <algorithm>
#include <atomic>

#include "tkc/graph/intersect_simd.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/parallel.h"

namespace tkc {

namespace {

using Partners = TrianglePartnerIndex::Partners;

// Prefix-sums `support` into `offsets`, then scatters each triangle's three
// (min, max) partner pairs with the oriented enumeration. offsets[e] serves
// as e's fill cursor (claimed with a relaxed fetch_add when several workers
// fill), so after the scatter it holds the end of e's segment; one shift
// turns the ends back into starts. Sorting each short segment then makes the
// result independent of which worker found which triangle first.
template <typename Offset>
void Fill(const CsrGraph& g, const std::vector<uint32_t>& support,
          int threads, IntersectKernel kernel, std::vector<Offset>& offsets,
          std::vector<Partners>& partners) {
  const size_t cap = g.EdgeCapacity();
  offsets.resize(cap + 1);
  offsets[0] = 0;
  for (size_t e = 0; e < cap; ++e) offsets[e + 1] = offsets[e] + support[e];
  Partners* out = partners.data();

  auto scatter = [&](auto claim) {
    ParallelFor(threads, OrientedTriangleDomain(g, kernel),
                [&](int, size_t begin, size_t end) {
      IntersectStats stats;
      ForEachOrientedTriangleInRange(
          g, kernel, begin, end, stats, [&](EdgeId e, EdgeId a, EdgeId b) {
            out[claim(e)] = std::minmax(a, b);
            out[claim(a)] = std::minmax(e, b);
            out[claim(b)] = std::minmax(e, a);
          });
    });
  };
  if (threads > 1) {
    scatter([&](EdgeId e) {
      return std::atomic_ref<Offset>(offsets[e]).fetch_add(
          1, std::memory_order_relaxed);
    });
  } else {
    scatter([&](EdgeId e) { return offsets[e]++; });
  }
  if (cap > 0) {
    std::copy_backward(offsets.begin(), offsets.begin() + (cap - 1),
                       offsets.begin() + cap);
    offsets[0] = 0;
  }

  ParallelFor(threads, cap, [&](int, size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      if (offsets[e + 1] - offsets[e] > 1) {
        std::sort(out + offsets[e], out + offsets[e + 1]);
      }
    }
  });
}

}  // namespace

TrianglePartnerIndex TrianglePartnerIndex::Build(
    const CsrGraph& g, const std::vector<uint32_t>& support, int threads) {
  threads = ResolveThreads(threads);
  const IntersectKernel kernel = CurrentKernel();
  uint64_t entries = 0;
  for (uint32_t s : support) entries += s;
  TrianglePartnerIndex index;
  index.partners_.resize(entries);
  if (entries <= UINT32_MAX) {
    Fill(g, support, threads, kernel, index.offsets32_, index.partners_);
  } else {
    Fill(g, support, threads, kernel, index.offsets64_, index.partners_);
  }
  return index;
}

}  // namespace tkc
