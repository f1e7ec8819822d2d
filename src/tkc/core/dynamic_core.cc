#include "tkc/core/dynamic_core.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <utility>

#include "tkc/core/analysis_context.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"
#include "tkc/util/timer.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/certificate.h"
#endif

namespace tkc {

namespace {

// flag_ states. A walk moves level-k edges idle → queued → candidate (or
// back to idle), the repeel moves candidates to evicted, and a removal
// marks demoted edges and then placed ones.
enum Flag : uint8_t {
  kIdle = 0,
  kQueued,
  kCandidate,
  kEvicted,
  kDemoted,
  kPlaced,
};

// Folds one ApplyBatch into the process-wide registry: the shared dyn.*
// work counters, batch-shape counters and a per-batch latency histogram.
void RecordBatch(double seconds, const BatchStats& b) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& batches = registry.GetCounter("dyn.batch.count");
  static obs::Counter& events = registry.GetCounter("dyn.batch.events");
  static obs::Counter& coalesced =
      registry.GetCounter("dyn.batch.coalesced_events");
  static obs::Counter& inserts = registry.GetCounter("dyn.batch.net_inserts");
  static obs::Counter& removes = registry.GetCounter("dyn.batch.net_removes");
  static obs::Counter& levels = registry.GetCounter("dyn.batch.levels");
  static obs::Counter& candidates =
      registry.GetCounter("dyn.candidate_edges");
  static obs::Counter& promoted = registry.GetCounter("dyn.promoted_edges");
  static obs::Counter& demoted = registry.GetCounter("dyn.demoted_edges");
  static obs::Counter& triangles =
      registry.GetCounter("dyn.triangles_scanned");
  static obs::Histogram& latency =
      registry.GetHistogram("dyn.batch.latency_ns");
  static obs::Histogram& affected =
      registry.GetHistogram("dyn.batch.affected_edges");
  batches.Add(1);
  events.Add(b.events);
  coalesced.Add(b.coalesced_events);
  inserts.Add(b.net_inserts);
  removes.Add(b.net_removes);
  levels.Add(b.levels);
  candidates.Add(b.work.candidate_edges);
  promoted.Add(b.work.promoted_edges);
  demoted.Add(b.work.demoted_edges);
  triangles.Add(b.work.triangles_scanned);
  latency.ObserveSeconds(seconds);
  affected.Observe(b.work.candidate_edges);
  TKC_SPAN_COUNTER("events", b.events);
  TKC_SPAN_COUNTER("candidate_edges", b.work.candidate_edges);
  TKC_SPAN_COUNTER("triangles_scanned", b.work.triangles_scanned);
}

}  // namespace

std::string UpdateStats::ToString() const {
  return "candidates=" + std::to_string(candidate_edges) +
         " promoted=" + std::to_string(promoted_edges) +
         " demoted=" + std::to_string(demoted_edges) +
         " triangles_scanned=" + std::to_string(triangles_scanned);
}

std::ostream& operator<<(std::ostream& os, const UpdateStats& stats) {
  return os << stats.ToString();
}

std::string BatchStats::ToString() const {
  return "events=" + std::to_string(events) +
         " coalesced=" + std::to_string(coalesced_events) +
         " inserts=" + std::to_string(net_inserts) +
         " removes=" + std::to_string(net_removes) +
         " levels=" + std::to_string(levels) + " " + work.ToString();
}

std::ostream& operator<<(std::ostream& os, const BatchStats& stats) {
  return os << stats.ToString();
}

DynamicTriangleCore::DynamicTriangleCore(DeltaCsr graph)
    : graph_(std::move(graph)) {
  const AnalysisContext ctx(graph_.Frozen());
  TriangleCoreResult initial = ComputeTriangleCores(ctx);
  kappa_ = std::move(initial.kappa);
  InitOrder(initial, ctx.TriangleIndex());
}

DynamicTriangleCore::DynamicTriangleCore(DeltaCsr graph,
                                         TriangleCoreResult initial,
                                         const TrianglePartnerIndex& index)
    : graph_(std::move(graph)), kappa_(std::move(initial.kappa)) {
  InitOrder(initial, index);
}

void DynamicTriangleCore::InitOrder(TriangleCoreResult& initial,
                                    const TrianglePartnerIndex& index) {
  TKC_CHECK(kappa_.size() == graph_.EdgeCapacity());
  TKC_CHECK(initial.order.size() == kappa_.size());
  // The peel sequence is not needed; free it before the order arrays grow.
  std::vector<EdgeId>().swap(initial.peel_sequence);
  // Headroom for the ids later inserts allocate, so the first of them does
  // not reallocate and copy every per-edge array (untouched capacity costs
  // no resident memory).
  const size_t headroom = kappa_.size() + kappa_.size() / 4;
  kappa_.reserve(headroom);
  label_.reserve(headroom);
  rem_.reserve(headroom);
  flag_.reserve(headroom);
  cand_support_.reserve(headroom);
  queued_.reserve(headroom);
  GrowArrays();
  // Algorithm 1 peels in non-decreasing κ, so its rank is a valid label,
  // and the next tail label of a level follows its last-peeled edge.
  graph_.ForEachEdge([&](EdgeId e, const Edge&) {
    label_[e] = initial.order[e];
    int64_t& tail = Ends(kappa_[e]).tail;
    tail = std::max(tail, label_[e]);
  });
  // rem(e) is the support e still had when the peel took it, without the
  // triangles whose relaxations the κ floor absorbed; so rem <= κ. The
  // rank alone orders the edges here, since κ never decreases along it.
  const std::vector<uint32_t>& order = initial.order;
  for (EdgeId e = 0; e < kappa_.size(); ++e) {
    const uint32_t rank = order[e];
    uint32_t r = 0;
    for (const auto& [p, q] : index.Of(e)) {
      r += static_cast<uint32_t>(order[p] > rank) &
           static_cast<uint32_t>(order[q] > rank);
    }
    rem_[e] = r;
    triangles_ += r;
    TKC_CHECK_MSG(r <= kappa_[e],
                  "DynamicTriangleCore: initial order is not a peel of κ");
  }
}

void DynamicTriangleCore::GrowArrays() {
  const size_t cap = graph_.EdgeCapacity();
  if (kappa_.size() < cap) kappa_.resize(cap, 0);
  if (label_.size() < cap) label_.resize(cap, 0);
  if (rem_.size() < cap) rem_.resize(cap, 0);
  if (flag_.size() < cap) flag_.resize(cap, kIdle);
  if (cand_support_.size() < cap) cand_support_.resize(cap, 0);
  if (queued_.size() < cap) queued_.resize(cap, 0);
}

DynamicTriangleCore::LevelEnds& DynamicTriangleCore::Ends(uint32_t k) {
  if (ends_.size() <= k) ends_.resize(k + 1);
  return ends_[k];
}

uint32_t DynamicTriangleCore::InsertionBound(EdgeId e0) {
  // h-index over min(κ(e1), κ(e2)) of e0's triangles: the largest k such
  // that at least k triangles have partner-min >= k.
  std::vector<uint32_t>& mins = hist_;
  mins.clear();
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
    ++last_stats_.triangles_scanned;
    mins.push_back(std::min(kappa_[e1], kappa_[e2]));
  });
  std::sort(mins.begin(), mins.end(), std::greater<uint32_t>());
  uint32_t k1 = 0;
  for (size_t i = 0; i < mins.size(); ++i) {
    if (mins[i] >= i + 1) k1 = static_cast<uint32_t>(i + 1);
  }
  return k1;
}

uint64_t DynamicTriangleCore::InsertInternal(EdgeId e0) {
  static obs::Histogram& walk_edges =
      obs::MetricsRegistry::Global().GetHistogram("dyn.insert.walk_edges");
  const uint64_t popped_before = last_stats_.candidate_edges;

  // Step 1: κ(e0) = k1 at the tail of level k1. Then rem(e0) counts the
  // triangles whose partners both sit above level k1, fewer than k1 + 1
  // by the h-index definition.
  const uint32_t k1 = InsertionBound(e0);
  kappa_[e0] = k1;
  label_[e0] = ++Ends(k1).tail;
  rem_[e0] = 0;

  // Step 2: every new triangle belongs to its first edge. An edge shares
  // at most one triangle with e0, so its rem grows by at most one and a
  // seed has rem = κ + 1.
  std::vector<EdgeId> seeds;
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId p, EdgeId q) {
    ++last_stats_.triangles_scanned;
    ++triangles_;
    const EdgeId first = Before(p, q) ? p : q;
    if (Before(e0, first)) {
      ++rem_[e0];
    } else if (++rem_[first] > kappa_[first]) {
      seeds.push_back(first);
    }
  });
  TKC_DCHECK(rem_[e0] <= k1);

  // Step 3-4, per seed level, highest first. A level-k walk changes rem
  // and labels only inside levels k and k+1 and promotes only to k+1, so
  // the seeds of lower levels stay valid.
  std::sort(seeds.begin(), seeds.end(),
            [&](EdgeId a, EdgeId b) { return Before(b, a); });
  uint64_t levels = 0;
  for (size_t i = 0; i < seeds.size();) {
    const uint32_t k = kappa_[seeds[i]];
    size_t j = i;
    while (j < seeds.size() && kappa_[seeds[j]] == k) ++j;
    WalkLevel(k, std::span<const EdgeId>(seeds.data() + i, j - i));
    ++levels;
    i = j;
  }
  walk_edges.Observe(last_stats_.candidate_edges - popped_before);
  return levels;
}

void DynamicTriangleCore::WalkLevel(uint32_t k,
                                    std::span<const EdgeId> seeds) {
  // --- Walk: pop level-k edges in label order; cand_support_ holds d*(x),
  // the triangles on x handed over by earlier candidates. A triangle is
  // counted by x iff each partner comes later than x or is a candidate.
  // Hand-overs only go forward, so the heap pops in increasing label.
  using Entry = std::pair<int64_t, EdgeId>;
  std::vector<Entry> heap;
  auto push = [&](EdgeId f) {
    flag_[f] = kQueued;
    heap.emplace_back(label_[f], f);
    std::push_heap(heap.begin(), heap.end(), std::greater<Entry>());
  };
  for (EdgeId s : seeds) push(s);
  std::vector<EdgeId> cands;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Entry>());
    const EdgeId x = heap.back().second;
    heap.pop_back();
    ++last_stats_.candidate_edges;
    if (rem_[x] + cand_support_[x] <= k) {
      // No slack: x stays, and is now the first edge of what it was handed.
      rem_[x] += cand_support_[x];
      cand_support_[x] = 0;
      flag_[x] = kIdle;
      continue;
    }
    flag_[x] = kCandidate;
    cands.push_back(x);
    ForEachTriangleOnEdge(graph_, x, [&](VertexId, EdgeId p, EdgeId q) {
      ++last_stats_.triangles_scanned;
      auto counted = [&](EdgeId r) {
        return flag_[r] == kCandidate || Before(x, r);
      };
      if (!counted(p) || !counted(q)) return;
      // The triangle moves on to its first level-k non-candidate; those
      // all come after x, since x counted the triangle.
      auto open = [&](EdgeId r) {
        return kappa_[r] == k && flag_[r] != kCandidate;
      };
      EdgeId next = open(p) ? p : kInvalidEdge;
      if (open(q) && (next == kInvalidEdge || label_[q] < label_[next])) {
        next = q;
      }
      if (next == kInvalidEdge) return;
      ++cand_support_[next];
      if (flag_[next] == kIdle) push(next);
    });
  }
  if (cands.empty()) return;

  // --- Repeel: a candidate is promoted to k+1 iff it keeps >= k+1
  // triangles whose partners have κ > k or are surviving candidates.
  auto qual = [&](EdgeId f) {
    return kappa_[f] > k || flag_[f] == kCandidate;
  };
  std::vector<EdgeId> evicted;
  for (EdgeId c : cands) {
    uint32_t s = 0;
    ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      if (qual(f1) && qual(f2)) ++s;
    });
    cand_support_[c] = s;
    if (s <= k) evicted.push_back(c);
  }
  // `evicted` doubles as the eviction queue: entries are evicted in order.
  size_t placed = 0;
  for (size_t head = 0; head < evicted.size(); ++head) {
    const EdgeId c = evicted[head];
    if (flag_[c] != kCandidate) continue;
    flag_[c] = kEvicted;
    evicted[placed++] = c;
    ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      auto drop = [&](EdgeId cand, EdgeId other) {
        if (flag_[cand] != kCandidate || !qual(other)) return;
        if (--cand_support_[cand] == k) evicted.push_back(cand);
      };
      drop(f1, f2);
      drop(f2, f1);
    });
  }
  evicted.resize(placed);

  // --- Place: survivors at the head of level k+1 in walk order, evicted
  // candidates at the tail of level k in eviction order. An evicted edge's
  // final repeel count covers exactly the partners that now come after
  // it, so it is its rem; survivors are recounted.
  for (auto it = cands.rbegin(); it != cands.rend(); ++it) {
    if (flag_[*it] != kCandidate) continue;
    label_[*it] = --Ends(k + 1).head;
    ++kappa_[*it];
    ++last_stats_.promoted_edges;
  }
  for (EdgeId c : evicted) {
    label_[c] = ++Ends(k).tail;
    rem_[c] = cand_support_[c];
  }
  for (EdgeId c : cands) {
    if (flag_[c] == kCandidate) {
      uint32_t r = 0;
      ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
        ++last_stats_.triangles_scanned;
        if (Before(c, f1) && Before(c, f2)) ++r;
      });
      rem_[c] = r;
    }
    TKC_DCHECK(rem_[c] <= kappa_[c]);
    flag_[c] = kIdle;
    cand_support_[c] = 0;
  }
}

void DynamicTriangleCore::VerifyAfterUpdate(const char* where) {
#if TKC_CHECK_LEVEL >= 2
  verify::CheckOrDie(verify::CheckKappaCertificate(graph_, kappa_), where);
  std::string failure;
  if (!OrderInvariantHolds(&failure)) {
    failure = std::string(where) + ": " + failure;
    TKC_CHECK_MSG(false, failure.c_str());
  }
#else
  (void)where;
#endif
}

bool DynamicTriangleCore::OrderInvariantHolds(std::string* failure) const {
  std::vector<std::pair<uint32_t, int64_t>> keys;
  keys.reserve(graph_.NumEdges());
  std::string why;
  uint64_t rem_total = 0;
  graph_.ForEachEdge([&](EdgeId e, const Edge& edge) {
    rem_total += rem_[e];
    if (!why.empty()) return;
    uint32_t r = 0;
    ForEachTriangleOnEdge(graph_, e, [&](VertexId, EdgeId p, EdgeId q) {
      if (Before(e, p) && Before(e, q)) ++r;
    });
    if (r != rem_[e] || rem_[e] > kappa_[e]) {
      why = "edge " + std::to_string(e) + " = (" + std::to_string(edge.u) +
            "," + std::to_string(edge.v) + "): rem " +
            std::to_string(rem_[e]) + ", recount " + std::to_string(r) +
            ", kappa " + std::to_string(kappa_[e]);
    }
    keys.emplace_back(kappa_[e], label_[e]);
  });
  if (why.empty() && rem_total != triangles_) {
    why = "sum of rem " + std::to_string(rem_total) + " != triangle total " +
          std::to_string(triangles_);
  }
  if (why.empty()) {
    std::sort(keys.begin(), keys.end());
    const auto dup = std::adjacent_find(keys.begin(), keys.end());
    if (dup != keys.end()) {
      why = "label " + std::to_string(dup->second) + " repeats in level " +
            std::to_string(dup->first);
    }
  }
  if (failure != nullptr) *failure = why;
  return why.empty();
}

BatchStats DynamicTriangleCore::ApplyBatch(std::span<const EdgeEvent> events) {
  TKC_SPAN("dyn.apply_batch");
  Timer latency;
  BatchStats batch;
  batch.events = events.size();
  last_stats_ = UpdateStats{};

  // --- Coalesce to the net effect per endpoint pair. κ is a function of
  // the final graph alone, so replaying only net changes yields the same
  // decomposition as replaying every event. Within each pair the events
  // are walked in stream order against the pre-batch existence, so
  // insert/delete pairs cancel exactly.
  struct Keyed {
    VertexId u, v;
    uint32_t seq;
    EdgeEvent::Kind kind;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(events.size());
  for (uint32_t i = 0; i < events.size(); ++i) {
    const EdgeEvent& ev = events[i];
    TKC_CHECK_MSG(ev.u != ev.v, "ApplyBatch: self-loop event");
    keyed.push_back(
        Keyed{std::min(ev.u, ev.v), std::max(ev.u, ev.v), i, ev.kind});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.seq < b.seq;
  });
  std::vector<Edge> net_inserts;
  std::vector<EdgeId> net_removes;
  for (size_t i = 0; i < keyed.size();) {
    size_t j = i;
    const EdgeId existing = graph_.FindEdge(keyed[i].u, keyed[i].v);
    const bool exists0 = existing != kInvalidEdge;
    bool exists = exists0;
    while (j < keyed.size() && keyed[j].u == keyed[i].u &&
           keyed[j].v == keyed[i].v) {
      exists = keyed[j].kind == EdgeEvent::Kind::kInsert;
      ++j;
    }
    if (exists != exists0) {
      if (exists) {
        net_inserts.push_back(Edge{keyed[i].u, keyed[i].v});
      } else {
        net_removes.push_back(existing);
      }
    }
    i = j;
  }
  batch.net_inserts = net_inserts.size();
  batch.net_removes = net_removes.size();
  batch.coalesced_events =
      batch.events - batch.net_inserts - batch.net_removes;

  // --- Removal phase: every net removal, then ONE demotion pump over the
  // fully mutated graph and one order repair.
  {
    TKC_SPAN("dyn.remove");
    RemoveInternal(net_removes);
  }

  // --- Insert phase: one walk per inserted edge, each against the exact
  // decomposition and order of the graph before it.
  {
    TKC_SPAN("dyn.insert");
    for (const Edge& ins : net_inserts) {
      bool inserted = false;
      const EdgeId e0 = graph_.AddEdge(ins.u, ins.v, &inserted);
      TKC_CHECK(inserted);
      GrowArrays();
      batch.levels += InsertInternal(e0);
    }
  }

  batch.work = last_stats_;
  total_stats_.candidate_edges += batch.work.candidate_edges;
  total_stats_.promoted_edges += batch.work.promoted_edges;
  total_stats_.demoted_edges += batch.work.demoted_edges;
  total_stats_.triangles_scanned += batch.work.triangles_scanned;
  RecordBatch(latency.Seconds(), batch);
  VerifyAfterUpdate("DynamicTriangleCore::ApplyBatch");
  return batch;
}

EdgeId DynamicTriangleCore::InsertEdge(VertexId u, VertexId v) {
  const EdgeEvent ev{EdgeEvent::Kind::kInsert, u, v};
  ApplyBatch(std::span<const EdgeEvent>(&ev, 1));
  return graph_.FindEdge(u, v);
}

bool DynamicTriangleCore::RemoveEdge(VertexId u, VertexId v) {
  const EdgeEvent ev{EdgeEvent::Kind::kRemove, u, v};
  return ApplyBatch(std::span<const EdgeEvent>(&ev, 1)).net_removes == 1;
}

void DynamicTriangleCore::RemoveInternal(std::span<const EdgeId> edges) {
  // Structurally remove every edge first. Each destroyed triangle is
  // enumerated once, at the first of its edges to go: it leaves rem of
  // its first edge, and the partners whose κ it may have supported (Rule
  // 0: both other edges had κ >= κ(f)) are queued under the pre-removal
  // κ values.
  std::vector<EdgeId> queue;
  std::vector<std::pair<EdgeId, EdgeId>> destroyed;
  for (const EdgeId e0 : edges) {
    const uint32_t k0 = kappa_[e0];
    destroyed.clear();
    ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
      ++last_stats_.triangles_scanned;
      destroyed.emplace_back(e1, e2);
    });
    for (const auto& [e1, e2] : destroyed) {
      const EdgeId first = Before(e1, e2) ? e1 : e2;
      if (Before(first, e0)) --rem_[first];
    }
    triangles_ -= destroyed.size();
    graph_.RemoveEdgeById(e0);
    kappa_[e0] = 0;
    rem_[e0] = 0;
    auto seed = [&](EdgeId f, EdgeId other) {
      if (kappa_[f] == 0 || queued_[f]) return;
      if (std::min(k0, kappa_[other]) >= kappa_[f]) {
        queued_[f] = 1;
        queue.push_back(f);
      }
    };
    for (const auto& [e1, e2] : destroyed) {
      seed(e1, e2);
      seed(e2, e1);
    }
  }
  // The pump recomputes h(f) from the final adjacency, so one queue pass
  // absorbs the combined effect of all removals, and its decreasing
  // iteration converges to the exact decomposition.
  std::vector<EdgeId> demoted;
  PumpDemotions(queue, demoted);
  RepairOrder(demoted);
}

void DynamicTriangleCore::PumpDemotions(
    std::vector<EdgeId>& queue, std::vector<EdgeId>& demoted) {
  // Asynchronous decreasing iteration: κ(f) <- h(f) where h(f) is the
  // largest k such that f keeps >= k triangles with partner-min >= k.
  // Starting from valid upper bounds this converges exactly to the
  // decomposition (any fixpoint of h is dominated by the true κ, and the
  // iteration never undershoots it).
  size_t head = 0;
  while (head < queue.size()) {
    EdgeId f = queue[head++];
    queued_[f] = 0;
    if (!graph_.IsEdgeAlive(f)) continue;
    const uint32_t kf = kappa_[f];
    if (kf == 0) continue;
    ++last_stats_.candidate_edges;

    // Count triangles qualified at the current level; collect the partner
    // minima histogram (capped at kf) for the h recomputation.
    if (hist_.size() < static_cast<size_t>(kf) + 1) hist_.resize(kf + 1);
    std::fill(hist_.begin(), hist_.begin() + kf + 1, 0);
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      uint32_t m = std::min(kappa_[f1], kappa_[f2]);
      hist_[std::min(m, kf)]++;
    });
    uint32_t cum = 0;
    uint32_t h = 0;
    for (uint32_t k = kf; k > 0; --k) {
      cum += hist_[k];
      if (cum >= k) {
        h = k;
        break;
      }
    }
    if (h >= kf) continue;  // support intact, no change

    if (flag_[f] == kIdle) {
      flag_[f] = kDemoted;
      cand_support_[f] = kf;
      demoted.push_back(f);
    }
    kappa_[f] = h;
    ++last_stats_.demoted_edges;
    // Theorem-1 neighbors whose qualified count may have used f at a level
    // f no longer reaches.
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      for (EdgeId p : {f1, f2}) {
        if (kappa_[p] > h && kappa_[p] <= kf && !queued_[p]) {
          queued_[p] = 1;
          queue.push_back(p);
        }
      }
    });
  }
}

void DynamicTriangleCore::RepairOrder(const std::vector<EdgeId>& demoted) {
  if (demoted.empty()) return;
  // --- rem of the edges that stay: only demoted keys moved, and each moved
  // earlier, so a kept edge y loses exactly the triangles it was first of
  // in which a demoted edge now precedes it — one whose new level is
  // below κ(y), since a demoted edge joins its level at the tail. Old keys
  // are (cand_support_, label_) for demoted edges. Each triangle is
  // visited from its smallest-id demoted edge.
  auto old_before = [&](EdgeId a, EdgeId b) {
    const uint32_t ka = flag_[a] == kDemoted ? cand_support_[a] : kappa_[a];
    const uint32_t kb = flag_[b] == kDemoted ? cand_support_[b] : kappa_[b];
    return ka != kb ? ka < kb : label_[a] < label_[b];
  };
  for (const EdgeId f : demoted) {
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId p, EdgeId q) {
      ++last_stats_.triangles_scanned;
      const bool dp = flag_[p] == kDemoted;
      const bool dq = flag_[q] == kDemoted;
      if ((dp && p < f) || (dq && q < f)) return;
      EdgeId first = old_before(p, q) ? p : q;
      if (old_before(f, first)) first = f;
      if (flag_[first] == kDemoted) return;  // rebuilt below
      uint32_t low = kappa_[f];
      if (dp) low = std::min(low, kappa_[p]);
      if (dq) low = std::min(low, kappa_[q]);
      if (low < kappa_[first]) --rem_[first];
    });
  }

  // --- The demoted edges of each new level h join its tail in the order
  // of a local peel at threshold h+1 over themselves and the edges above
  // h: an edge is placed once at most h of its triangles have both
  // partners above h or still unplaced, and that count is its rem. Exact
  // κ makes the peel place every one (none is in the (h+1)-core).
  std::vector<EdgeId> by_level = demoted;
  std::stable_sort(by_level.begin(), by_level.end(),
                   [&](EdgeId a, EdgeId b) { return kappa_[a] < kappa_[b]; });
  std::vector<EdgeId> ready;
  for (size_t i = 0; i < by_level.size();) {
    const uint32_t h = kappa_[by_level[i]];
    size_t j = i;
    while (j < by_level.size() && kappa_[by_level[j]] == h) ++j;
    auto later = [&](EdgeId r) {
      return kappa_[r] > h || (kappa_[r] == h && flag_[r] == kDemoted);
    };
    ready.clear();
    for (size_t x = i; x < j; ++x) {
      const EdgeId f = by_level[x];
      uint32_t count = 0;
      ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId p, EdgeId q) {
        ++last_stats_.triangles_scanned;
        if (later(p) && later(q)) ++count;
      });
      rem_[f] = count;
      if (count <= h) ready.push_back(f);
    }
    for (size_t r = 0; r < ready.size(); ++r) {
      const EdgeId f = ready[r];
      flag_[f] = kPlaced;
      label_[f] = ++Ends(h).tail;
      ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId p, EdgeId q) {
        ++last_stats_.triangles_scanned;
        auto drop = [&](EdgeId peer, EdgeId other) {
          if (kappa_[peer] != h || flag_[peer] != kDemoted || !later(other)) {
            return;
          }
          if (--rem_[peer] == h) ready.push_back(peer);
        };
        drop(p, q);
        drop(q, p);
      });
    }
    TKC_CHECK_MSG(ready.size() == j - i,
                  "DynamicTriangleCore: demoted edges left unplaced");
    i = j;
  }
  for (const EdgeId f : demoted) {
    flag_[f] = kIdle;
    cand_support_[f] = 0;
  }
}

}  // namespace tkc
