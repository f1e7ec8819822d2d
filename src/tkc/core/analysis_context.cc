#include "tkc/core/analysis_context.h"

#include <algorithm>
#include <utility>

#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"
#include "tkc/util/parallel.h"

namespace tkc {

AnalysisContext::AnalysisContext(const Graph& g, int threads)
    : csr_(std::make_shared<const CsrGraph>(g)),
      threads_(ResolveThreads(threads)) {}

AnalysisContext::AnalysisContext(CsrGraph csr, int threads)
    : csr_(std::make_shared<const CsrGraph>(std::move(csr))),
      threads_(ResolveThreads(threads)) {}

AnalysisContext::AnalysisContext(std::shared_ptr<const CsrGraph> csr,
                                 int threads)
    : csr_(std::move(csr)), threads_(ResolveThreads(threads)) {
  TKC_CHECK_MSG(csr_ != nullptr, "AnalysisContext: null snapshot");
}

const std::vector<uint32_t>& AnalysisContext::Supports() const {
  MutexLock lock(mu_);
  if (!supports_.has_value()) {
    TKC_SPAN("support_count");
    CacheSupports(ComputeEdgeSupports(*csr_, threads_));
  }
  return *supports_;
}

void AnalysisContext::CacheSupports(std::vector<uint32_t> supports) const {
  obs::MetricsRegistry::Global()
      .GetCounter("analysis.support_computations")
      .Add(1);
  supports_ = std::move(supports);
  // L2 oracle: the parallel enumeration must agree with a serial per-edge
  // common-neighbor recount.
  TKC_VERIFY_L2(csr_->ForEachEdge([&](EdgeId e, const Edge& edge) {
    TKC_CHECK_MSG(
        (*supports_)[e] == csr_->CountCommonNeighbors(edge.u, edge.v),
        "AnalysisContext: parallel triangle enumeration disagrees with "
        "per-edge recount");
  }));
  uint64_t total = 0;
  uint32_t max_support = 0;
  for (uint32_t s : *supports_) {
    total += s;
    max_support = std::max(max_support, s);
  }
  triangle_count_ = total / 3;
  max_support_ = max_support;
}

const TrianglePartnerIndex& AnalysisContext::TriangleIndex() const {
  MutexLock lock(mu_);
  if (!triangle_index_.has_value()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("analysis.triangle_index_builds").Add(1);
    triangle_index_ = TrianglePartnerIndex::Build(*csr_, threads_);
    registry.GetGauge("mem.triangle_index_bytes")
        .Set(static_cast<double>(triangle_index_->Bytes()));
    // The build enumerated every triangle, so it also yields the supports.
    if (!supports_.has_value()) {
      CacheSupports(triangle_index_->Supports());
    } else {
      TKC_VERIFY_L2(TKC_CHECK_MSG(
          triangle_index_->Supports() == *supports_,
          "AnalysisContext::TriangleIndex: index disagrees with the cached "
          "supports"));
    }
  }
  return *triangle_index_;
}

uint64_t AnalysisContext::TriangleCount() const {
  Supports();
  MutexLock lock(mu_);
  return triangle_count_;
}

uint32_t AnalysisContext::MaxSupport() const {
  Supports();
  MutexLock lock(mu_);
  return max_support_;
}

}  // namespace tkc
