#include "tkc/verify/oracle.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "tkc/core/dynamic_core.h"
#include "tkc/core/triangle_core.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/verify/certificate.h"

namespace tkc::verify {

namespace {

// Diffs a maintained κ map against a fresh recompute of `g`; returns the
// first divergent live edge as a counterexample, with `step` recorded in
// the level field.
bool DiffAgainstRecompute(const DeltaCsr& g,
                          const std::vector<uint32_t>& kappa, size_t step,
                          Counterexample* ce) {
  TriangleCoreResult fresh = ComputeTriangleCores(g);
  bool ok = true;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!ok || kappa[e] == fresh.kappa[e]) return;
    *ce = {e,
           edge.u,
           edge.v,
           static_cast<uint32_t>(step),
           kappa[e],
           fresh.kappa[e],
           "maintained kappa diverged from Algorithm-1 recompute after "
           "event " +
               std::to_string(step)};
    ok = false;
  });
  return ok;
}

}  // namespace

VerifyReport ReplayEventLog(const Graph& base,
                            const std::vector<EdgeEvent>& events,
                            const ReplayOptions& options) {
  VerifyReport report;
  const std::string scope = "events=" + std::to_string(events.size()) +
                            " check_every=" +
                            std::to_string(options.check_every);

  // Each checkpoint interval is one ApplyBatch, the coalescing path
  // `tkc replay` runs; check_every = 1 replays event by event.
  DynamicTriangleCore dyn{DeltaCsr(base)};
  const size_t interval =
      options.check_every == 0 ? events.size() : options.check_every;
  bool ok = true;
  Counterexample ce;
  for (size_t off = 0; ok && off < events.size(); off += interval) {
    const size_t count = std::min(interval, events.size() - off);
    dyn.ApplyBatch(std::span<const EdgeEvent>(events.data() + off, count));
    ok = DiffAgainstRecompute(dyn.graph(), dyn.kappa(), off + count, &ce);
    if (ok && options.certificate_at_checkpoints) {
      VerifyReport cert = CheckKappaCertificate(dyn.graph(), dyn.kappa());
      if (!cert.AllPassed()) report.Merge(std::move(cert));
    }
  }
  report.Add(ok ? Pass("dynamic.replay", scope)
                : Fail("dynamic.replay", scope, ce));
  return report;
}

}  // namespace tkc::verify
