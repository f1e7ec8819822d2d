#include "tkc/core/triangle_core.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "tkc/core/analysis_context.h"
#include "tkc/core/parallel_peel.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/intersect.h"
#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/certificate.h"
#endif

namespace tkc {

namespace {

// Bucket queue over live edges keyed by their current κ̃ (remaining
// support). Mirrors the Batagelj–Zaversnik structure: `order_` holds the
// edges sorted by key, `bucket_[d]` is the index in `order_` of the first
// edge with key d, and a decrement is an O(1) swap-to-bucket-front. Once
// the peel has walked it front to back, `order_` is the peel sequence and
// `position_` each edge's rank in it, so both move straight into the result.
class EdgeBucketQueue {
 public:
  EdgeBucketQueue(const CsrGraph& g, const std::vector<uint32_t>& key) {
    uint32_t max_key = 0;
    g.ForEachEdge(
        [&](EdgeId e, const Edge&) { max_key = std::max(max_key, key[e]); });
    bucket_.assign(max_key + 2, 0);
    g.ForEachEdge([&](EdgeId e, const Edge&) { ++bucket_[key[e] + 1]; });
    for (size_t d = 1; d < bucket_.size(); ++d) bucket_[d] += bucket_[d - 1];
    order_.resize(g.NumEdges());
    position_.assign(g.EdgeCapacity(), kInvalidOrder);
    std::vector<uint32_t> cursor(bucket_.begin(), bucket_.end() - 1);
    g.ForEachEdge([&](EdgeId e, const Edge&) {
      position_[e] = cursor[key[e]]++;
      order_[position_[e]] = e;
    });
    bucket_.pop_back();  // keep bucket_[d] = start index of key d
  }

  EdgeId At(size_t i) const { return order_[i]; }
  size_t Size() const { return order_.size(); }

  // Moves `e` from key `d` to key `d-1`. Only valid while no edge with key
  // < d-1 remains unprocessed beyond index `processed_upto`.
  void Decrement(EdgeId e, uint32_t d) {
    uint32_t pe = position_[e];
    uint32_t pf = bucket_[d];
    EdgeId f = order_[pf];
    if (e != f) {
      std::swap(order_[pe], order_[pf]);
      position_[e] = pf;
      position_[f] = pe;
    }
    ++bucket_[d];
  }

  // Hands the walked queue over as `peel_sequence` and `order`.
  void MoveInto(TriangleCoreResult& result) && {
    result.peel_sequence = std::move(order_);
    result.order = std::move(position_);
  }

 private:
  std::vector<EdgeId> order_;
  std::vector<uint32_t> position_;
  std::vector<uint32_t> bucket_;
};

// Flag or'ed into a peeled edge's κ̃ entry, so the relax step learns "T is
// already processed" from the support reads it makes anyway (a support
// never reaches 2^31).
constexpr uint32_t kProcessed = uint32_t{1} << 31;

// Algorithm 1 over a context's snapshot. Steps 1-5 (κ̃(e) = number of
// triangles on e) come from the context's shared support cache; steps 7-18
// bucket-sort the live edges by κ̃ and peel. In kStoreTriangles mode the
// supports and each peeled edge's triangles come from the context's
// partner index, built from one recorded enumeration; in
// kRecomputeTriangles mode the supports are counted and each peeled edge
// re-intersects the endpoints' adjacency.
TriangleCoreResult Peel(const AnalysisContext& ctx, TriangleStorageMode mode) {
  TKC_SPAN_MEM("core.decompose");
  const CsrGraph& g = ctx.csr();
  // The index first: its build also fills the support cache, so store
  // mode enumerates the triangles once.
  const TrianglePartnerIndex* index =
      mode == TriangleStorageMode::kStoreTriangles ? &ctx.TriangleIndex()
                                                   : nullptr;
  std::vector<uint32_t> support = ctx.Supports();
  TriangleCoreResult result;
  result.triangle_count = ctx.TriangleCount();
  result.kappa.assign(g.EdgeCapacity(), 0);

  // Step 7: bucket sort edges by κ̃.
  EdgeBucketQueue queue = [&] {
    TKC_SPAN("bucket_init");
    return EdgeBucketQueue(g, support);
  }();

  // Steps 8-18: peel in increasing κ̃ order, one timeline slice per level.
  std::vector<uint64_t> peeled_per_level;
  uint64_t relaxations = 0;
  {
    TKC_SPAN("peel");
    std::optional<obs::TimelineScope> level_scope;
    auto close_level = [&] {
      if (!level_scope) return;
      level_scope->AddArg("edges", peeled_per_level.back());
      level_scope.reset();
    };
    for (size_t i = 0; i < queue.Size(); ++i) {
      const EdgeId et = queue.At(i);
      const uint32_t k = support[et];
      support[et] = k | kProcessed;
      result.kappa[et] = k;
      if (peeled_per_level.size() <= k) {
        close_level();
        peeled_per_level.resize(k + 1, 0);
        result.max_kappa = k;
        level_scope.emplace("peel.level");
        level_scope->AddLabel("level", k);
      }
      ++peeled_per_level[k];

      // For each *unprocessed* triangle T on et, lower the κ̃ of T's other
      // edges that still exceed κ(et) (steps 10-17). A triangle is
      // processed iff any of its edges is processed.
      auto relax = [&](EdgeId e1, EdgeId e2) {
        const uint32_t s1 = support[e1];
        const uint32_t s2 = support[e2];
        if ((s1 | s2) & kProcessed) return;
        if (s1 > k) {
          queue.Decrement(e1, s1);
          support[e1] = s1 - 1;
          ++relaxations;
        }
        if (s2 > k) {
          queue.Decrement(e2, s2);
          support[e2] = s2 - 1;
          ++relaxations;
        }
      };
      if (index != nullptr) {
        for (const auto& [e1, e2] : index->Of(et)) relax(e1, e2);
      } else {
        const Edge edge = g.GetEdge(et);
        IntersectNeighbors(g, edge.u, edge.v,
                           [&](VertexId, EdgeId e1, EdgeId e2) {
                             relax(e1, e2);
                           });
      }
    }
    close_level();
    TKC_SPAN_COUNTER("edges_peeled", queue.Size());
    TKC_SPAN_COUNTER("support_relaxations", relaxations);
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("core.peel.edges_peeled").Add(queue.Size());
  registry.GetCounter("core.peel.support_relaxations").Add(relaxations);
  registry.GetGauge("core.peel.max_kappa").Set(result.max_kappa);
  for (size_t k = 0; k < peeled_per_level.size(); ++k) {
    if (peeled_per_level[k] == 0) continue;
    registry.GetCounter("core.peel.level." + std::to_string(k))
        .Add(peeled_per_level[k]);
  }
  std::move(queue).MoveInto(result);
  return result;
}

// A non-owning handle on a caller's snapshot (aliasing constructor with an
// empty owner), so the CsrGraph overload peels it in place without a copy.
std::shared_ptr<const CsrGraph> Borrow(const CsrGraph& g) {
  return std::shared_ptr<const CsrGraph>(std::shared_ptr<const CsrGraph>(),
                                         &g);
}

}  // namespace

TriangleCoreResult ComputeTriangleCores(const AnalysisContext& ctx,
                                        TriangleStorageMode mode) {
  TriangleCoreResult result = Peel(ctx, mode);
  TKC_VERIFY_L2(verify::CheckOrDie(
      verify::CheckKappaCertificate(ctx.csr(), result.kappa),
      "ComputeTriangleCores"));
  return result;
}

TriangleCoreResult ComputeTriangleCores(const Graph& g,
                                        TriangleStorageMode mode) {
  return ComputeTriangleCores(AnalysisContext(g), mode);
}

TriangleCoreResult ComputeTriangleCores(const CsrGraph& g,
                                        TriangleStorageMode mode) {
  return ComputeTriangleCores(AnalysisContext(Borrow(g)), mode);
}

TriangleCoreResult ComputeTriangleCores(const DeltaCsr& g,
                                        TriangleStorageMode mode) {
  return ComputeTriangleCores(AnalysisContext(g.Frozen()), mode);
}

TriangleCoreResult ComputeTriangleCoresParallel(const AnalysisContext& ctx) {
  return ComputeTriangleCores(ctx);
}

uint32_t MaxKappa(const CsrGraph& g, const TriangleCoreResult& r) {
  uint32_t m = 0;
  g.ForEachEdge([&](EdgeId e, const Edge&) { m = std::max(m, r.kappa[e]); });
  return m;
}

}  // namespace tkc
