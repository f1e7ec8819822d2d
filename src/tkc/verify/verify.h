#ifndef TKC_VERIFY_VERIFY_H_
#define TKC_VERIFY_VERIFY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/edge_event.h"
#include "tkc/verify/report.h"

namespace tkc::verify {

/// What RunFullVerification audits beyond its always-on oracles.
struct VerifyOptions {
  /// Optional edge-event log for the dynamic-maintenance replay oracle.
  std::vector<EdgeEvent> events;
  /// Replay checkpoint stride (see ReplayOptions::check_every).
  size_t check_every = 1;
};

/// The `tkc verify` engine: runs every applicable invariant oracle against
/// the frozen `graph` and returns the aggregated report —
///   graph.structure, csr.structure, csr.mirror (on one thaw of `graph`,
///   made inside the verify.structural span),
///   kappa.shape / kappa.soundness / kappa.maximality (on a fresh
///   Algorithm-1 decomposition in store mode, the peel every other command
///   runs), static.modes_agree (the recompute-mode peel must give the same
///   κ and triangle count — the two storage modes are observationally
///   equivalent per the paper's Section IV-A),
///   hierarchy.nesting, extraction.nesting,
///   dynamic.replay (when `events` is nonempty).
/// Instrumented with verify.* spans and counters; serialize the result
/// with VerifyReport::ToJson() for the tkc.verify.v1 artifact.
VerifyReport RunFullVerification(std::shared_ptr<const CsrGraph> graph,
                                 const VerifyOptions& options = {});

}  // namespace tkc::verify

#endif  // TKC_VERIFY_VERIFY_H_
