#ifndef TKC_VERIFY_NESTING_H_
#define TKC_VERIFY_NESTING_H_

#include <cstdint>
#include <vector>

#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/graph/csr.h"
#include "tkc/verify/report.h"

namespace tkc::verify {

/// Hierarchy-consistency oracle ("hierarchy.nesting"): validates a built
/// CoreHierarchy against the decomposition it came from —
///  * roots sit at k = 1 with no parent; every other node's k is exactly
///    its parent's k + 1 and is registered in the parent's child list;
///  * a node's peak edges all carry κ == node.k, and each live edge with
///    κ >= 1 appears as the peak edge of exactly one node (its LeafOf),
///    while κ = 0 edges map to no node;
///  * subtree edge counts telescope (subtree_edges = peak edges + children
///    subtree_edges) and subtree vertex counts never grow downward.
InvariantCheck CheckHierarchyNesting(const CoreHierarchy& h,
                                     const CsrGraph& g,
                                     const TriangleCoreResult& result);

/// Extraction-nesting oracle ("extraction.nesting"): for every level k in
/// [1, max κ + 1], the κ >= k subgraph returned by TriangleKCore is a
/// valid triangle k-core by direct recount (Definition 3: each member edge
/// keeps >= k triangles inside the member set) and is contained in the
/// level-(k-1) subgraph — the Claim 2 chain G_max ⊆ ... ⊆ G_1 ⊆ G.
InvariantCheck CheckExtractionNesting(const CsrGraph& g,
                                      const std::vector<uint32_t>& kappa);

}  // namespace tkc::verify

#endif  // TKC_VERIFY_NESTING_H_
