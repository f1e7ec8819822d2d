#include "tkc/core/triangle_index.h"

#include <algorithm>

#include "tkc/graph/triangle.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"

namespace tkc {

namespace {

using Partners = TrianglePartnerIndex::Partners;
using Record = std::vector<std::vector<OrientedTriangle>>;

// Derives the CSR from the recorded triangles. offsets[e + 1] first counts
// the triangles on e, and the prefix sum turns the counts into segment
// starts. offsets[e] then serves as e's fill cursor while each triangle's
// three (min, max) partner pairs are scattered, so it ends at the end of
// e's segment; one shift turns the ends back into starts. The count and
// the scatter are serial: a few writes per triangle, and per-edge atomic
// cursors measured slower at 4 threads. The record is freed before the
// segments are sorted, in parallel; the sort makes the result independent
// of which worker found which triangle first.
template <typename Offset>
void Derive(Record& record, size_t cap, int threads,
            std::vector<Offset>& offsets, std::vector<Partners>& partners) {
  offsets.assign(cap + 1, 0);
  for (const auto& list : record) {
    for (const OrientedTriangle& t : list) {
      ++offsets[t.e + 1];
      ++offsets[t.e1 + 1];
      ++offsets[t.e2 + 1];
    }
  }
  for (size_t e = 0; e < cap; ++e) offsets[e + 1] += offsets[e];

  Partners* out = partners.data();
  for (const auto& list : record) {
    for (const OrientedTriangle& t : list) {
      out[offsets[t.e]++] = std::minmax(t.e1, t.e2);
      out[offsets[t.e1]++] = std::minmax(t.e, t.e2);
      out[offsets[t.e2]++] = std::minmax(t.e, t.e1);
    }
  }
  record.clear();
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

TrianglePartnerIndex TrianglePartnerIndex::Build(const CsrGraph& g,
                                                 int threads) {
  threads = ResolveThreads(threads);
  Record record;
  {
    TKC_SPAN("support_count");
    record = RecordOrientedTriangles(g, threads);
  }
  TKC_SPAN("triangle_index");
  uint64_t entries = 0;
  for (const auto& list : record) entries += 3 * list.size();
  TrianglePartnerIndex index;
  index.partners_.resize(entries);
  if (entries <= UINT32_MAX) {
    Derive(record, g.EdgeCapacity(), threads, index.offsets32_,
           index.partners_);
  } else {
    Derive(record, g.EdgeCapacity(), threads, index.offsets64_,
           index.partners_);
  }
  TKC_SPAN_COUNTER("partner_entries", entries);
  return index;
}

std::vector<uint32_t> TrianglePartnerIndex::Supports() const {
  const size_t offsets = std::max(offsets32_.size(), offsets64_.size());
  std::vector<uint32_t> support(offsets == 0 ? 0 : offsets - 1);
  for (size_t e = 0; e < support.size(); ++e) {
    support[e] = static_cast<uint32_t>(Of(static_cast<EdgeId>(e)).size());
  }
  return support;
}

}  // namespace tkc
