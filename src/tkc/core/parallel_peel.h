#ifndef TKC_CORE_PARALLEL_PEEL_H_
#define TKC_CORE_PARALLEL_PEEL_H_

#include "tkc/core/triangle_core.h"
#include "tkc/graph/csr.h"

namespace tkc {

class AnalysisContext;

/// Forwarders to the one Algorithm-1 peel, ComputeTriangleCores in its
/// default kStoreTriangles mode: `threads` (ResolveThreads convention) runs
/// the triangle-partner index build, whose one enumeration also yields the
/// supports; the bucket peel over the index is serial. Results are
/// identical at any thread count.
TriangleCoreResult ComputeTriangleCoresParallel(const CsrGraph& g,
                                                int threads = 0);

/// Same, over the context's cached supports and index.
TriangleCoreResult ComputeTriangleCoresParallel(const AnalysisContext& ctx);

}  // namespace tkc

#endif  // TKC_CORE_PARALLEL_PEEL_H_
