#ifndef TKC_CORE_DYNAMIC_CORE_H_
#define TKC_CORE_DYNAMIC_CORE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tkc/core/triangle_core.h"
#include "tkc/core/triangle_index.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/edge_event.h"

namespace tkc {

/// Counters describing the work done by one ApplyBatch call; the
/// Table III benchmark reports these alongside the timings to show why the
/// incremental algorithm beats re-computation (it touches a tiny,
/// κ-bounded neighborhood — Rule 0 — instead of every edge).
struct UpdateStats {
  uint64_t candidate_edges = 0;   // edges examined as potential changers
  uint64_t promoted_edges = 0;    // κ increased by 1
  uint64_t demoted_edges = 0;     // κ decreased
  uint64_t triangles_scanned = 0; // triangle visits during the update

  /// "candidates=N promoted=N demoted=N triangles_scanned=N".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const UpdateStats& stats);

/// Outcome of one ApplyBatch call: the shared work counters plus the
/// batch-shape numbers (how much the coalescer elided, how many insert
/// walks actually ran) that make the amortization measurable.
struct BatchStats {
  UpdateStats work;
  uint64_t events = 0;            // events handed in
  uint64_t coalesced_events = 0;  // elided by net-effect coalescing
  uint64_t net_inserts = 0;       // structural inserts applied
  uint64_t net_removes = 0;       // structural removals applied
  uint64_t levels = 0;            // seed levels walked by the inserts

  /// "events=N coalesced=N inserts=N removes=N levels=N" + work.
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const BatchStats& stats);

/// Incrementally maintained Triangle K-Core decomposition (the paper's
/// Algorithm 2) over one evolving `DeltaCsr`: the overlay view the engine
/// serves from and `tkc update` mutates.
///
/// Semantics maintained as an invariant after every call: `kappa()[e]`
/// equals the κ(e) that `ComputeTriangleCores(graph())` would produce — the
/// maximum Triangle K-Core number of every live edge.
///
/// The maintainer keeps a k-order beside κ (order-based core maintenance,
/// Zhang et al., ICDE 2017, transposed from vertices to edges): a total
/// order of the live edges by the key (κ(e), label(e)), where the int64
/// labels come from Algorithm 1's `order` and later only from the head or
/// the tail of a level, so no edge is ever relabeled. rem(e) counts the
/// triangles on e whose two partner edges both come later in the order;
/// the order is a valid peel, rem(e) <= κ(e) for every edge.
///
/// Per inserted edge e0 (ApplyBatch inserts its net inserts one at a
/// time):
///   1. κ(e0) = k1, the h-index over the partner minima of e0's triangles,
///      and e0 joins the tail of level k1. Only edges with κ <= k1 can
///      change, each by at most one (the paper's Rule 0 / Lemmas 1-2).
///   2. Each new triangle adds 1 to rem of its first edge; an edge whose
///      rem now exceeds κ seeds a walk at its level.
///   3. Per seed level K, highest first, a label-ordered walk pops edges
///      that received support: x is a candidate iff rem(x) + d*(x) > K,
///      where d*(x) counts triangles handed over by earlier candidates.
///      A candidate hands each triangle it counted on to the triangle's
///      first non-candidate level-K edge; a non-candidate keeps them
///      (rem += d*). The walk stops where no edge has slack.
///   4. The candidates are repeeled at threshold K+1; survivors move to
///      the head of level K+1 (κ += 1) and get rem recounted, evicted ones
///      move to the tail of K and keep their final repeel count as rem.
/// Removals run a cascading demotion pump: partners of each destroyed
/// triangle are re-checked, an edge whose Theorem-1-qualified support
/// drops below κ(e) is demoted to its local h-value and its neighbors
/// re-checked (a decreasing iteration that converges to the exact
/// decomposition). Each destroyed triangle first takes 1 off rem of its
/// first edge; afterwards every demoted edge joins the tail of its new
/// level in the order of a local peel, and rem is repaired for the
/// triangles whose first edge moved.
///
/// `ApplyBatch` is the only update routine: it coalesces an event batch to
/// its net effect per edge, runs all net removals through one shared pump,
/// then inserts. κ is a function of the final graph alone, so the result
/// is identical at any batch size; `InsertEdge` and `RemoveEdge` are
/// one-event batches.
///
/// The maintainer also keeps the graph's triangle total: Σ rem = |T| at
/// `InitOrder`, and every triangle an insert creates or a removal destroys
/// is visited exactly once, so the total moves by ±1 per visit and reads
/// never recount.
class DynamicTriangleCore {
 public:
  /// Takes ownership of `graph` and runs Algorithm 1 once to initialize κ
  /// and the k-order.
  explicit DynamicTriangleCore(DeltaCsr graph);

  /// Starts from a decomposition and the triangle index its peel read
  /// (both must match `graph`, including the decomposition's `order`): the
  /// k-order is derived in one linear pass over the index, with no
  /// triangle enumeration.
  DynamicTriangleCore(DeltaCsr graph, TriangleCoreResult initial,
                      const TrianglePartnerIndex& index);

  const DeltaCsr& graph() const { return graph_; }

  /// Freezes the view into a new base CSR (DeltaCsr::Compact). EdgeIds are
  /// preserved, so κ and the k-order carry over unchanged. Returns the new
  /// shared base.
  std::shared_ptr<const CsrGraph> Compact() { return graph_.Compact(); }

  /// κ per EdgeId; sized graph().EdgeCapacity(); dead ids hold 0.
  const std::vector<uint32_t>& kappa() const { return kappa_; }

  uint32_t KappaOf(EdgeId e) const { return kappa_[e]; }

  /// Number of triangles in graph(), maintained without enumeration.
  uint64_t TriangleCount() const { return triangles_; }

  /// Applies an event batch (see class comment): coalesce → shared
  /// removal pump → inserts. Self-loop events are rejected with a check
  /// failure (the hardened io parser filters them before they get here).
  /// The resulting κ(e) per live edge equals per-event application; note
  /// that when coalescing elides a remove+reinsert pair the *id* of that
  /// edge keeps its old value instead of being reallocated. Vertex
  /// departure (the paper's dynamic model) is a batch of removals of the
  /// vertex's edges.
  BatchStats ApplyBatch(std::span<const EdgeEvent> events);

  /// One-event ApplyBatch of inserting {u,v}. Returns the edge id (the
  /// existing id if the edge was already present — a no-op update).
  EdgeId InsertEdge(VertexId u, VertexId v);

  /// One-event ApplyBatch of removing {u,v}. Returns false if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  /// Work counters for the most recent batch.
  const UpdateStats& last_update_stats() const { return last_stats_; }

  /// Cumulative counters since construction.
  const UpdateStats& total_stats() const { return total_stats_; }

  /// Checks the k-order bookkeeping against a recount: for every live
  /// edge rem(e) equals the number of triangles whose partners both come
  /// later in the order, rem(e) <= κ(e), labels are unique within each
  /// κ level, and Σ rem over the live edges equals TriangleCount(). On
  /// failure, describes the first violation in `failure`.
  bool OrderInvariantHolds(std::string* failure = nullptr) const;

 private:
  void GrowArrays();
  // Derives labels from the peel's order and rem from the index.
  void InitOrder(TriangleCoreResult& initial,
                 const TrianglePartnerIndex& index);
  // True iff `a` precedes `b` in the k-order.
  bool Before(EdgeId a, EdgeId b) const {
    return kappa_[a] != kappa_[b] ? kappa_[a] < kappa_[b]
                                  : label_[a] < label_[b];
  }
  // The labels last issued at the head and the tail of a level; a fresh
  // head label is --head, a fresh tail label ++tail.
  struct LevelEnds {
    int64_t head = 0;
    int64_t tail = 0;
  };
  LevelEnds& Ends(uint32_t k);
  // Computes the h-bound k1 for freshly inserted edge e0.
  uint32_t InsertionBound(EdgeId e0);
  // Steps 1-4 of the class comment for the just-added edge e0; returns
  // the number of seed levels walked.
  uint64_t InsertInternal(EdgeId e0);
  // Steps 3-4 for one seed level: walk, repeel, place, recount.
  void WalkLevel(uint32_t k, std::span<const EdgeId> seeds);
  // Removes live `edges` structurally, runs one demotion pump over the
  // result and repairs the order.
  void RemoveInternal(std::span<const EdgeId> edges);
  // Cascading demotion queue pump; entries of `queued_` touched by `queue`
  // are reset before returning. Every demoted edge is appended once to
  // `demoted`, with its pre-pump κ parked in cand_support_.
  void PumpDemotions(std::vector<EdgeId>& queue,
                     std::vector<EdgeId>& demoted);
  // Moves the demoted edges to the tails of their new levels and repairs
  // rem; resets their scratch.
  void RepairOrder(const std::vector<EdgeId>& demoted);
  // TKC_CHECK_LEVEL >= 2 oracle: certifies kappa_ against the independent
  // recount and the k-order bookkeeping once per batch.
  void VerifyAfterUpdate(const char* where);

  DeltaCsr graph_;
  std::vector<uint32_t> kappa_;
  // The k-order: (κ, label) and rem per edge, the label ends per level.
  std::vector<int64_t> label_;
  std::vector<uint32_t> rem_;
  std::vector<LevelEnds> ends_;
  uint64_t triangles_ = 0;  // |T|; Σ rem over the live edges
  // Scratch (lazily grown to EdgeCapacity, cleaned after every update):
  // flag_ holds a Flag state; cand_support_ holds d* during a walk, the
  // repeel counts after it, and a demoted edge's old κ during a removal.
  std::vector<uint8_t> flag_;
  std::vector<uint32_t> cand_support_;
  std::vector<uint8_t> queued_;
  std::vector<uint32_t> hist_;  // partner-min list / histogram scratch
  UpdateStats last_stats_;
  UpdateStats total_stats_;
};

}  // namespace tkc

#endif  // TKC_CORE_DYNAMIC_CORE_H_
