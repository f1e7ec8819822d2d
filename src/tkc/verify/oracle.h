#ifndef TKC_VERIFY_ORACLE_H_
#define TKC_VERIFY_ORACLE_H_

#include <cstddef>
#include <vector>

#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"
#include "tkc/verify/report.h"

namespace tkc::verify {

/// Options for the dynamic-maintenance replay oracle.
struct ReplayOptions {
  /// Cross-check the maintained κ against an Algorithm-1 recompute every
  /// this many events (and always after the last one). 0 = final-only.
  size_t check_every = 1;
  /// Additionally run the full κ-certificate at every checkpoint (slower;
  /// the recompute diff alone already pins divergence to an event).
  bool certificate_at_checkpoints = false;
};

/// Replays `events` on a DeltaCsr view of `base` through DynamicTriangleCore
/// (Algorithm 2), applying each checkpoint interval as one ApplyBatch, and
/// at every checkpoint diffs the maintained κ map against a from-scratch
/// Algorithm-1 recompute of the current graph — the paper's own ground
/// truth for the maintenance rules. Emits "dynamic.replay"; a divergence
/// counterexample carries the edge, the event index it surfaced at (level
/// field), the maintained value (observed) and the recomputed value
/// (expected).
VerifyReport ReplayEventLog(const Graph& base,
                            const std::vector<EdgeEvent>& events,
                            const ReplayOptions& options = {});

}  // namespace tkc::verify

#endif  // TKC_VERIFY_ORACLE_H_
