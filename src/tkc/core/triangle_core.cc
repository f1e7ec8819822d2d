#include "tkc/core/triangle_core.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tkc/core/analysis_context.h"
#include "tkc/core/parallel_peel.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/intersect.h"
#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"
#include "tkc/util/default_init.h"
#include "tkc/util/parallel.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/certificate.h"
#endif

namespace tkc {

namespace {

// Lists shorter than this (a frontier, the unpeeled edges) are handled on
// the calling thread alone: waking the pool costs more than the work it
// would share.
constexpr size_t kPeelGrain = 4096;

// Frontier edges a worker claims at a time during a triangle walk, so the
// long triangle lists of hub edges spread over the workers.
constexpr size_t kWalkBlock = 256;

// Steps 7-18 of Algorithm 1 as a level-synchronous peel. Level k starts
// from every unpeeled edge whose κ̃ is k, the least κ̃ left. Each sub-round
// peels its whole frontier at once (κ = k), ranks it in EdgeId order and
// walks its triangles on every worker. A triangle is handled by its
// lowest-ranked edge, so it is skipped when an edge of it was peeled
// before; each unpeeled partner's κ̃ drops by one, never below k (the floor
// of the bucket peel). The edges whose κ̃ reaches k form the next frontier,
// and the level ends with a sub-round that finds none.
//
// A floored decrement has the same outcome in any order, so every
// frontier, and with it κ, `order` and `peel_sequence`, is the same at any
// thread count and with either triangle source.
//
// Its per-edge arrays are the result's three and the list of edges still
// unpeeled. `kappa` holds κ̃ on entry; a peeled edge's κ̃ stays at its
// level, so it ends as κ. `order` is the rank, kInvalidOrder until peeled,
// so it also tells which sub-round took an edge, and each frontier is
// written straight into `peel_sequence`.
class LevelPeel {
 public:
  LevelPeel(const CsrGraph& g, const TrianglePartnerIndex* index,
            int threads, TriangleCoreResult& result)
      : g_(g),
        index_(index),
        support_(result.kappa),
        threads_(threads),
        order_(result.order),
        sequence_(result.peel_sequence),
        next_(static_cast<size_t>(threads)) {
    order_.assign(g.EdgeCapacity(), kInvalidOrder);
    sequence_.resize(g.NumEdges());
  }

  // Peels every level, one `peel.level` slice each.
  void Run() {
    size_t peeled = 0;
    while (peeled < sequence_.size()) {
      obs::TimelineScope level("peel.level");
      size_t end = 0;
      const uint32_t k = StartLevel(peeled, &end);
      level.AddLabel("level", k);
      uint64_t rounds = 0;
      for (size_t begin = peeled; begin < end; ++rounds) {
        Walk(begin, end, k);
        begin = std::exchange(end, TakeNextFrontier(end));
      }
      level.AddArg("edges", end - peeled);
      level.AddArg("rounds", rounds);
      levels_.push_back({k, end - peeled});
      peeled = end;
    }
  }

  // (κ, edges peeled) of each level, in peel order.
  const std::vector<std::pair<uint32_t, size_t>>& levels() const {
    return levels_;
  }
  uint64_t relaxations() const { return relaxations_; }

 private:
  int Workers(size_t n) const { return n >= kPeelGrain ? threads_ : 1; }

  // The level-start filter over the unpeeled list (before the first level,
  // over every live id): finds the least κ̃ k, writes the edges at k from
  // rank `peeled` on, in list order (EdgeId order) and ranked, and
  // compacts the rest of the list. Returns k and sets `*frontier_end` past
  // the frontier.
  uint32_t StartLevel(size_t peeled, size_t* frontier_end) {
    const bool listed = !levels_.empty();  // made by the previous level
    const size_t n = listed ? unpeeled_.size() : g_.EdgeCapacity();
    const int workers = Workers(n);
    // Entry i, or kInvalidEdge for a dead id or an edge peeled since the
    // list was made.
    const bool holes = g_.NumEdges() < g_.EdgeCapacity();
    auto entry = [&](size_t i) {
      if (listed) {
        const EdgeId e = unpeeled_[i];
        return order_[e] == kInvalidOrder ? e : kInvalidEdge;
      }
      const auto e = static_cast<EdgeId>(i);
      return holes && !g_.IsEdgeAlive(e) ? kInvalidEdge : e;
    };
    struct Slice {
      uint32_t min = UINT32_MAX;
      size_t at_min = 0;
      size_t live = 0;
    };
    std::vector<Slice> slices(static_cast<size_t>(workers));
    ParallelFor(workers, n, [&](int t, size_t lo, size_t hi) {
      Slice s;
      for (size_t i = lo; i < hi; ++i) {
        const EdgeId e = entry(i);
        if (e == kInvalidEdge) continue;
        ++s.live;
        if (support_[e] < s.min) {
          s.min = support_[e];
          s.at_min = 0;
        }
        s.at_min += support_[e] == s.min;
      }
      slices[t] = s;
    });
    uint32_t k = UINT32_MAX;
    for (const Slice& s : slices) k = std::min(k, s.min);
    TKC_CHECK_MSG(k != UINT32_MAX, "LevelPeel: no unpeeled edge left");
    size_t frontier = 0;
    for (const Slice& s : slices) frontier += s.min == k ? s.at_min : 0;
    // Slice t writes its frontier edges from frontier_at[t] and the edges
    // it keeps from kept_at[t], into the free tail of `peel_sequence`.
    std::vector<size_t> frontier_at(slices.size());
    std::vector<size_t> kept_at(slices.size());
    size_t next_frontier = peeled;
    size_t next_kept = peeled + frontier;
    for (size_t t = 0; t < slices.size(); ++t) {
      const size_t taken = slices[t].min == k ? slices[t].at_min : 0;
      frontier_at[t] = std::exchange(next_frontier, next_frontier + taken);
      kept_at[t] =
          std::exchange(next_kept, next_kept + slices[t].live - taken);
    }
    ParallelFor(workers, n, [&](int t, size_t lo, size_t hi) {
      size_t f = frontier_at[t];
      size_t kept = kept_at[t];
      for (size_t i = lo; i < hi; ++i) {
        const EdgeId e = entry(i);
        if (e == kInvalidEdge) continue;
        const bool take = support_[e] == k;
        sequence_[take ? f : kept] = e;
        order_[e] = take ? static_cast<uint32_t>(f) : kInvalidOrder;
        f += take;
        kept += !take;
      }
    });
    // Move the kept edges into the list before the next frontiers
    // overwrite the tail.
    const EdgeId* kept = sequence_.data() + peeled + frontier;
    unpeeled_.resize(next_kept - (peeled + frontier));
    ParallelFor(Workers(unpeeled_.size()), unpeeled_.size(),
                [&](int, size_t lo, size_t hi) {
                  std::copy(kept + lo, kept + hi, unpeeled_.begin() + lo);
                });
    *frontier_end = peeled + frontier;
    return k;
  }

  // Walks the triangles of the frontier at ranks [begin, end).
  void Walk(size_t begin, size_t end, uint32_t k) {
    const int workers = Workers(end - begin);
    std::atomic<size_t> cursor{begin};
    std::vector<uint64_t> relaxed(static_cast<size_t>(workers), 0);
    ParallelFor(workers, static_cast<size_t>(workers),
                [&](int w, size_t, size_t) {
                  uint64_t r = 0;
                  for (size_t b;
                       (b = cursor.fetch_add(kWalkBlock,
                                             std::memory_order_relaxed)) <
                       end;) {
                    const size_t e = std::min(b + kWalkBlock, end);
                    r += workers > 1 ? WalkBlock<true>(b, e, k, next_[w])
                                     : WalkBlock<false>(b, e, k, next_[w]);
                  }
                  relaxed[w] = r;
                });
    for (const uint64_t r : relaxed) relaxations_ += r;
  }

  // The triangles of the frontier edges at ranks [begin, end): each one
  // this edge handles lowers its unpeeled partners' κ̃ by one, floored at
  // k, and the edges that land on k join `next`. With kConcurrent the
  // decrement is a compare-and-swap, so exactly one worker sees an edge
  // reach k. Returns the decrements made.
  template <bool kConcurrent>
  uint64_t WalkBlock(size_t begin, size_t end, uint32_t k,
                     std::vector<EdgeId>& next) {
    uint64_t relaxed = 0;
    auto relax = [&](EdgeId e) {
      if constexpr (kConcurrent) {
        std::atomic_ref<uint32_t> ref(support_[e]);
        uint32_t s = ref.load(std::memory_order_relaxed);
        while (s > k) {
          if (ref.compare_exchange_weak(s, s - 1,
                                        std::memory_order_relaxed)) {
            ++relaxed;
            if (s == k + 1) next.push_back(e);
            return;
          }
        }
      } else {
        uint32_t& s = support_[e];
        if (s <= k) return;
        ++relaxed;
        if (--s == k) next.push_back(e);
      }
    };
    for (size_t i = begin; i < end; ++i) {
      const auto rank = static_cast<uint32_t>(i);
      auto visit = [&](EdgeId e1, EdgeId e2) {
        const uint32_t r1 = order_[e1];
        const uint32_t r2 = order_[e2];
        if (r1 < rank || r2 < rank) return;
        if (r1 == kInvalidOrder) relax(e1);
        if (r2 == kInvalidOrder) relax(e2);
      };
      const EdgeId et = sequence_[i];
      if (index_ != nullptr) {
        for (const auto& [e1, e2] : index_->Of(et)) visit(e1, e2);
      } else {
        const Edge edge = g_.GetEdge(et);
        IntersectNeighbors(g_, edge.u, edge.v,
                           [&](VertexId, EdgeId e1, EdgeId e2) {
                             visit(e1, e2);
                           });
      }
    }
    return relaxed;
  }

  // Writes the workers' next frontier from rank `begin` on, sorted by
  // EdgeId and ranked; returns the rank past it. The sort is a two-pass
  // LSD radix sort on digits of half the id width, split over the workers,
  // once the frontier is at least as long as the workers' histograms;
  // std::sort below that. Either way it costs O(frontier), never O(|E|).
  size_t TakeNextFrontier(size_t begin) {
    size_t n = 0;
    for (const std::vector<EdgeId>& list : next_) n += list.size();
    EdgeId* const out = sequence_.data() + begin;
    auto rank = [&](size_t i, EdgeId e) {
      out[i] = e;
      order_[e] = static_cast<uint32_t>(begin + i);
    };
    const int digit = (std::bit_width(g_.EdgeCapacity()) + 1) / 2;
    const size_t radix = size_t{1} << digit;
    const size_t lists = next_.size();
    if (n < radix * lists) {
      EdgeId* at = out;
      for (const std::vector<EdgeId>& list : next_) {
        at = std::copy(list.begin(), list.end(), at);
      }
      std::sort(out, out + n);
      for (size_t i = 0; i < n; ++i) rank(i, out[i]);
    } else {
      // Pass 1 reads the workers' lists, pass 2 as many slices of the
      // buffer; each source writes its digit's elements from its own
      // offsets, so both passes are stable.
      sort_buffer_.resize(n);
      std::vector<size_t> start(radix * lists);
      auto source = [&](int pass, size_t w) -> std::span<const EdgeId> {
        if (pass == 0) return next_[w];
        return std::span<const EdgeId>(sort_buffer_)
            .subspan(n * w / lists, n * (w + 1) / lists - n * w / lists);
      };
      for (int pass = 0; pass < 2; ++pass) {
        const int shift = pass * digit;
        auto bucket = [&](EdgeId e) { return (e >> shift) & (radix - 1); };
        std::fill(start.begin(), start.end(), 0);
        ParallelFor(Workers(n), lists, [&](int, size_t b, size_t e) {
          for (size_t w = b; w < e; ++w) {
            size_t* count = start.data() + radix * w;
            for (const EdgeId id : source(pass, w)) ++count[bucket(id)];
          }
        });
        size_t sum = 0;
        for (size_t d = 0; d < radix; ++d) {
          for (size_t w = 0; w < lists; ++w) {
            sum += std::exchange(start[radix * w + d], sum);
          }
        }
        ParallelFor(Workers(n), lists, [&](int, size_t b, size_t e) {
          for (size_t w = b; w < e; ++w) {
            size_t* at = start.data() + radix * w;
            for (const EdgeId id : source(pass, w)) {
              if (pass == 0) {
                sort_buffer_[at[bucket(id)]++] = id;
              } else {
                rank(at[bucket(id)]++, id);
              }
            }
          }
        });
      }
    }
    for (std::vector<EdgeId>& list : next_) list.clear();
    return begin + n;
  }

  const CsrGraph& g_;
  const TrianglePartnerIndex* index_;
  std::vector<uint32_t>& support_;  // κ̃, and κ once peeled
  const int threads_;
  std::vector<uint32_t>& order_;
  std::vector<EdgeId>& sequence_;
  DefaultInitVector<EdgeId> unpeeled_;  // in EdgeId order
  std::vector<std::vector<EdgeId>> next_;  // per worker
  DefaultInitVector<EdgeId> sort_buffer_;
  std::vector<std::pair<uint32_t, size_t>> levels_;
  uint64_t relaxations_ = 0;
};

// Algorithm 1 over a context's snapshot. Steps 1-5 (κ̃(e) = number of
// triangles on e) come from the context's shared support cache; steps 7-18
// are the level-synchronous peel above, on the context's threads. In
// kStoreTriangles mode the supports and each peeled edge's triangles come
// from the context's partner index, built from one recorded enumeration;
// in kRecomputeTriangles mode the supports are counted and each peeled
// edge re-intersects the endpoints' adjacency.
TriangleCoreResult Peel(const AnalysisContext& ctx, TriangleStorageMode mode) {
  TKC_SPAN_MEM("core.decompose");
  const CsrGraph& g = ctx.csr();
  // The index first: its build also fills the support cache, so store
  // mode enumerates the triangles once.
  const TrianglePartnerIndex* index =
      mode == TriangleStorageMode::kStoreTriangles ? &ctx.TriangleIndex()
                                                   : nullptr;
  TriangleCoreResult result;
  result.kappa = ctx.Supports();
  result.triangle_count = ctx.TriangleCount();
  std::vector<std::pair<uint32_t, size_t>> levels;
  uint64_t relaxations = 0;
  {
    TKC_SPAN("peel");
    LevelPeel peel(g, index, ctx.threads(), result);
    peel.Run();
    levels = peel.levels();
    relaxations = peel.relaxations();
    TKC_SPAN_COUNTER("edges_peeled", g.NumEdges());
    TKC_SPAN_COUNTER("support_relaxations", relaxations);
  }
  if (!levels.empty()) result.max_kappa = levels.back().first;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("core.peel.edges_peeled").Add(g.NumEdges());
  registry.GetCounter("core.peel.support_relaxations").Add(relaxations);
  registry.GetGauge("core.peel.max_kappa").Set(result.max_kappa);
  for (const auto& [k, edges] : levels) {
    registry.GetCounter("core.peel.level." + std::to_string(k)).Add(edges);
  }
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
