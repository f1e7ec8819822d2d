#include "tkc/engine/engine.h"

#include <algorithm>
#include <utility>

#include "tkc/core/triangle_core.h"
#include "tkc/obs/log.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"
#include "tkc/verify/certificate.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/report.h"
#endif

namespace tkc::engine {

namespace {

// Builds the maintainer for the constructor: Algorithm 1 runs once on the
// view's frozen base, and the maintainer adopts its κ, its peel order and
// the triangle index the peel read, so the k-order needs no second
// triangle enumeration. The CSR is never copied again — the DeltaCsr
// overlays it and every snapshot shares it.
DynamicTriangleCore MakeInitialCore(DeltaCsr view,
                                    const EngineOptions& options) {
  const AnalysisContext ctx(view.base_ptr(), options.threads);
  TriangleCoreResult initial = ComputeTriangleCores(ctx);
  return DynamicTriangleCore(std::move(view), std::move(initial),
                             ctx.TriangleIndex());
}

}  // namespace

TkcEngine::TkcEngine(const Graph& base, EngineOptions options)
    : options_(options), dyn_(MakeInitialCore(DeltaCsr(base), options)) {}

TkcEngine::TkcEngine(std::shared_ptr<const CsrGraph> base,
                     EngineOptions options)
    : options_(options),
      dyn_(MakeInitialCore(DeltaCsr(std::move(base)), options)) {}

bool TkcEngine::ShouldCompact() const {
  const DeltaCsr& g = dyn_.graph();
  const size_t threshold =
      options_.compaction_edits != 0
          ? options_.compaction_edits
          : std::max<size_t>(4096, (g.base().NumEdges() + 3) / 4);
  return g.EditsSinceCompaction() >= threshold;
}

BatchStats TkcEngine::ApplyBatch(std::span<const EdgeEvent> events) {
  TKC_SPAN("engine.apply_batch");
  last_batch_ = dyn_.ApplyBatch(events);
  obs::MetricsRegistry::Global().GetGauge("engine.epoch").Set(epoch());

  if (ShouldCompact()) CompactNow();
  return last_batch_;
}

bool TkcEngine::Compact() {
  if (!dyn_.graph().Dirty()) return false;
  CompactNow();
  return true;
}

void TkcEngine::CompactNow() {
  TKC_SPAN("engine.compact");
  const size_t edits = dyn_.graph().EditsSinceCompaction();
  std::shared_ptr<const CsrGraph> base = dyn_.Compact();
  ++compactions_;
  {
    MutexLock lock(snapshot_mu_);
    cache_valid_ = false;
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("engine.compactions").Add(1);
  registry.GetCounter("engine.compacted_edits").Add(edits);
  registry.GetGauge("engine.epoch").Set(epoch());

  // Compaction-boundary certificate: the frozen base must carry the exact
  // decomposition the maintainer claims. At TKC_CHECK_LEVEL >= 2 this is
  // always-on and fatal; with verify_compactions it runs in release builds
  // too and is surfaced through certificates_ok().
  if (options_.verify_compactions) {
    TKC_SPAN("engine.compact.certificate");
    verify::VerifyReport report =
        verify::CheckKappaCertificate(*base, dyn_.kappa());
    if (!report.AllPassed()) {
      certificates_ok_ = false;
      last_certificate_ = std::move(report);
      const verify::InvariantCheck* failure = last_certificate_.FirstFailure();
      obs::Logger::Global().Error(
          "engine.compact.certificate",
          {{"epoch", std::to_string(epoch())},
           {"failed", failure != nullptr ? failure->name : "unknown"}});
    } else {
      last_certificate_ = std::move(report);
    }
  }
#if TKC_CHECK_LEVEL >= 2
  verify::CheckOrDie(verify::CheckKappaCertificate(*base, dyn_.kappa()),
                     "TkcEngine::CompactNow");
#endif
}

EngineSnapshot TkcEngine::Snapshot() {
  TKC_SPAN("engine.snapshot");
  Compact();  // no-op when clean
  MutexLock lock(snapshot_mu_);
  if (!cache_valid_) {
    // Zero-copy handoff: the AnalysisContext shares the DeltaCsr's base
    // snapshot and is seeded with the maintainer's triangle total, so a
    // triangle-count read enumerates nothing. The κ vector is the one
    // thing duplicated (the maintainer keeps mutating its own), and it is
    // shared across every snapshot of this epoch; tests pin the shared
    // base by pointer identity.
    cached_context_ = std::make_shared<const AnalysisContext>(
        dyn_.graph().base_ptr(), options_.threads, dyn_.TriangleCount());
    cached_kappa_ =
        std::make_shared<const std::vector<uint32_t>>(dyn_.kappa());
    uint32_t max_kappa = 0;
    for (uint32_t k : *cached_kappa_) max_kappa = std::max(max_kappa, k);
    cached_max_kappa_ = max_kappa;
    cached_epoch_ = epoch();
    cache_valid_ = true;
    obs::MetricsRegistry::Global().GetCounter("engine.snapshots").Add(1);
  }
  EngineSnapshot snap;
  snap.epoch = cached_epoch_;
  snap.context = cached_context_;
  snap.kappa = cached_kappa_;
  snap.max_kappa = cached_max_kappa_;
  return snap;
}

}  // namespace tkc::engine
