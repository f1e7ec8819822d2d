#ifndef TKC_VERIFY_CERTIFICATE_H_
#define TKC_VERIFY_CERTIFICATE_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/verify/report.h"

namespace tkc::verify {

/// κ-certificate checker: proves a `kappa` map (indexed by EdgeId, as
/// produced by ComputeTriangleCores or the dynamic maintainers) is the
/// Triangle K-Core decomposition of `g`, by direct recount. Deliberately
/// shares no code with the Algorithm-1 bucket peel or the Rule-0 update
/// machinery — it is the independent oracle those implementations are
/// judged against.
///
/// Three checks:
///  * "kappa.shape"      — the array covers EdgeCapacity() and dead edge
///                         ids hold 0.
///  * "kappa.soundness"  — Definition 3 at each edge's own level: every
///                         live edge e has >= κ(e) triangles whose partner
///                         edges both have κ >= κ(e) (support within the
///                         κ >= κ(e) subgraph; checking the peak level
///                         suffices because lower levels only gain edges).
///                         Counterexample: (edge, level = κ(e), observed =
///                         qualified support, expected = κ(e)).
///  * "kappa.maximality" — for each level k in [1, max κ + 1], the maximal
///                         triangle k-core computed by naive iterative
///                         deletion (recount supports, delete every edge
///                         below k, repeat to fixpoint) contains no edge
///                         with κ < k; such an edge was under-valued.
///                         Counterexample: (edge, level = k, observed =
///                         κ(edge), expected >= k).
///
/// A map passing all three equals the true decomposition: soundness gives
/// {κ >= k} ⊆ (maximal k-core) for every k, maximality the converse.
/// Cost: O(max κ · |E| · deg) — linear-ish per level, no cleverness.
VerifyReport CheckKappaCertificate(const CsrGraph& g,
                                   const std::vector<uint32_t>& kappa);
VerifyReport CheckKappaCertificate(const DeltaCsr& g,
                                   const std::vector<uint32_t>& kappa);

}  // namespace tkc::verify

#endif  // TKC_VERIFY_CERTIFICATE_H_
