#ifndef TKC_CORE_TRIANGLE_INDEX_H_
#define TKC_CORE_TRIANGLE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tkc/graph/csr.h"

namespace tkc {

/// Flat edge → triangle-partner index, the kStoreTriangles representation
/// of Algorithm 1: for every edge e, one (min, max) pair of partner EdgeIds
/// per triangle on e, stored contiguously in a CSR layout (3 entries per
/// triangle). Offsets are uint32 while 3·|Tri| fits, uint64 beyond.
///
/// Each edge's segment is sorted, so the contents and order depend only on
/// EdgeIds: the index is identical at any thread count and any entry point.
class TrianglePartnerIndex {
 public:
  using Partners = std::pair<EdgeId, EdgeId>;

  TrianglePartnerIndex() = default;

  /// Enumerates the triangles of `g` once (RecordOrientedTriangles, under
  /// the `support_count` span), then derives the index from that record
  /// alone, under the `triangle_index` span: per-edge counts, their prefix
  /// sum, the scattered partner pairs and a sort of each segment. `threads`
  /// follows the ResolveThreads convention.
  static TrianglePartnerIndex Build(const CsrGraph& g, int threads);

  /// Per-edge supports read off the segment lengths (size =
  /// g.EdgeCapacity(), dead ids hold 0): equal to ComputeEdgeSupports(g).
  std::vector<uint32_t> Supports() const;

  /// The partner pairs of the triangles on `e` (empty for dead ids).
  std::span<const Partners> Of(EdgeId e) const {
    const Partners* base = partners_.data();
    if (!offsets32_.empty()) {
      return {base + offsets32_[e], base + offsets32_[e + 1]};
    }
    return {base + offsets64_[e], base + offsets64_[e + 1]};
  }

  /// Partner entries stored (= 3 · triangles).
  size_t NumEntries() const { return partners_.size(); }

  /// Heap footprint of the offsets and partner arrays.
  size_t Bytes() const {
    return offsets32_.size() * sizeof(uint32_t) +
           offsets64_.size() * sizeof(uint64_t) +
           partners_.size() * sizeof(Partners);
  }

  bool operator==(const TrianglePartnerIndex&) const = default;

 private:
  std::vector<uint32_t> offsets32_;  // used when 3·|Tri| < 2^32
  std::vector<uint64_t> offsets64_;  // used otherwise
  std::vector<Partners> partners_;
};

}  // namespace tkc

#endif  // TKC_CORE_TRIANGLE_INDEX_H_
