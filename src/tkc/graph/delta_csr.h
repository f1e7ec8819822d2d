#ifndef TKC_GRAPH_DELTA_CSR_H_
#define TKC_GRAPH_DELTA_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/graph.h"
#include "tkc/util/check.h"

namespace tkc {

/// Mutable overlay over an immutable, shared CSR base — the graph layer of
/// the versioned engine.
///
/// The base `CsrGraph` is held by shared_ptr and never mutated, so frozen
/// snapshots handed to the static read path (AnalysisContext) keep working
/// while the overlay evolves. Mutation is copy-on-write per vertex: the
/// first edit touching `v` copies its base adjacency into an owned sorted
/// vector; untouched vertices keep reading the contiguous base arrays.
/// Removed base edges are additionally tracked in a bitmap so the dense
/// edge-id table stays O(1).
///
/// EdgeId discipline matches `Graph`: every insert allocates a fresh dense
/// id (delta ids start at the base's EdgeCapacity), removal tombstones the
/// id, and ids are never reused — per-edge attribute arrays (κ, order)
/// indexed by EdgeId stay valid across mutations and across compactions.
///
/// `Compact()` freezes the overlaid view into a new base CSR via
/// `CsrGraph::Freeze` (the same parallel-read kernels as any snapshot),
/// clears the overlays, and bumps the epoch id. The engine layer decides
/// *when* to compact; this class only counts edits.
///
/// The read API is the common Graph/CsrGraph surface (NumVertices, Degree,
/// Neighbors, GetEdge, FindEdge, ForEachCommonNeighbor, ForEachEdge, ...),
/// so the template algorithms — CsrGraph::Freeze, ForEachTriangleOnEdge,
/// the κ-certificate — run on it unchanged. Not thread-safe for concurrent
/// mutation.
class DeltaCsr {
 public:
  using NeighborSpan = CsrGraph::NeighborSpan;

  /// Wraps an existing frozen base (zero-copy; the base is shared).
  explicit DeltaCsr(std::shared_ptr<const CsrGraph> base);

  /// Convenience: freezes `g` into a fresh base and wraps it.
  explicit DeltaCsr(const Graph& g);

  // --- Read API (mirrors Graph / CsrGraph) ---

  VertexId NumVertices() const { return num_vertices_; }

  /// Number of live edges.
  size_t NumEdges() const { return num_live_edges_; }

  /// One past the largest EdgeId ever allocated (base capacity + delta
  /// allocations). Per-edge attribute arrays must be sized to this.
  size_t EdgeCapacity() const { return base_capacity_ + delta_edges_.size(); }

  uint32_t Degree(VertexId v) const {
    TKC_DCHECK(v < num_vertices_);
    const int32_t idx = overlay_index_[v];
    if (idx >= 0) return static_cast<uint32_t>(overlay_[idx].size());
    return v < base_num_vertices_ ? base_->Degree(v) : 0;
  }

  /// Sorted live adjacency of `v`. The span is invalidated by any mutation
  /// of the graph (same contract as Graph's vector reference).
  NeighborSpan Neighbors(VertexId v) const {
    TKC_DCHECK(v < num_vertices_);
    const int32_t idx = overlay_index_[v];
    if (idx >= 0) {
      const std::vector<Neighbor>& adj = overlay_[idx];
      return {adj.data(), adj.data() + adj.size()};
    }
    if (v < base_num_vertices_) return base_->Neighbors(v);
    return {nullptr, nullptr};
  }

  bool IsEdgeAlive(EdgeId e) const {
    if (e < base_capacity_) {
      return base_->IsEdgeAlive(e) && !base_removed_[e];
    }
    const size_t i = e - base_capacity_;
    return i < delta_edges_.size() && delta_edges_[i].u != kInvalidVertex;
  }

  /// Endpoints of live edge `e` (normalized u < v).
  Edge GetEdge(EdgeId e) const {
    TKC_DCHECK(IsEdgeAlive(e));
    return e < base_capacity_ ? base_->GetEdge(e)
                              : delta_edges_[e - base_capacity_];
  }

  /// Returns the id of live edge {u,v}, or kInvalidEdge if absent.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  /// Invokes fn(w, uw_edge, vw_edge) per common neighbor (sorted merge).
  template <typename Fn>
  void ForEachCommonNeighbor(VertexId u, VertexId v, Fn&& fn) const {
    const NeighborSpan su = Neighbors(u);
    const NeighborSpan sv = Neighbors(v);
    MergeNeighbors(su.begin(), su.end(), sv.begin(), sv.end(), fn);
  }

  /// Number of common neighbors of `u` and `v`.
  uint32_t CountCommonNeighbors(VertexId u, VertexId v) const;

  /// Invokes fn(EdgeId, Edge) for every live edge, increasing id order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (EdgeId e = 0; e < base_capacity_; ++e) {
      if (base_->IsEdgeAlive(e) && !base_removed_[e]) fn(e, base_->GetEdge(e));
    }
    for (size_t i = 0; i < delta_edges_.size(); ++i) {
      if (delta_edges_[i].u != kInvalidVertex) {
        fn(static_cast<EdgeId>(base_capacity_ + i), delta_edges_[i]);
      }
    }
  }

  /// Lists all live edge ids in increasing order.
  std::vector<EdgeId> EdgeIds() const;

  // --- Mutation API (mirrors Graph) ---

  /// Appends a new isolated vertex and returns its id.
  VertexId AddVertex();

  /// Grows the vertex set so that ids [0, n) are all valid.
  void EnsureVertices(VertexId n);

  /// Inserts the undirected edge {u,v}; returns its id (fresh delta id).
  /// If the edge already exists, returns the existing id and sets
  /// `*inserted` (when provided) to false. Self-loops are rejected.
  EdgeId AddEdge(VertexId u, VertexId v, bool* inserted = nullptr);

  /// Removes edge {u,v}; returns its (now dead) id, or kInvalidEdge if the
  /// edge was not present.
  EdgeId RemoveEdge(VertexId u, VertexId v);

  /// Removes the edge with id `e`. The id must refer to a live edge.
  void RemoveEdgeById(EdgeId e);

  // --- Versioning ---

  /// Epoch id: bumped by every Compact(). Snapshots taken at the same epoch
  /// from a clean view see the identical base CSR object.
  ///
  /// Threading contract (checked by the engine's annotations, stated here
  /// because DeltaCsr itself is single-writer): all mutation — including
  /// Compact() and therefore this counter — happens on the owning thread;
  /// reader threads only ever observe the epoch through an EngineSnapshot,
  /// whose shared_ptr handoff provides the happens-before edge. No lock or
  /// atomic is needed on this field as long as that discipline holds.
  uint64_t epoch() const { return epoch_; }

  /// True when edits have accumulated since the last compaction (the base
  /// no longer equals the overlaid view).
  bool Dirty() const { return edits_since_compaction_ > 0; }

  size_t EditsSinceCompaction() const { return edits_since_compaction_; }

  /// Overlay footprint: vertices whose adjacency has been copy-on-write'd.
  size_t OverlaidVertices() const { return overlay_.size(); }

  const CsrGraph& base() const { return *base_; }
  std::shared_ptr<const CsrGraph> base_ptr() const { return base_; }

  /// The overlaid view as a frozen snapshot: the base itself when clean
  /// (zero-copy), otherwise a fresh freeze (EdgeIds preserved, holes
  /// included). The view is left as it is.
  std::shared_ptr<const CsrGraph> Frozen() const;

  /// Rebuilds the base CSR from the overlaid view through CsrGraph::Freeze
  /// (EdgeIds preserved, holes included), clears every overlay, and bumps
  /// the epoch. Returns the new shared base. O(|V| + |E| log) like any
  /// freeze; a no-op-in-spirit when clean (still rebuilds).
  std::shared_ptr<const CsrGraph> Compact();

 private:
  // COW: returns the owned adjacency vector for v, copying the base list on
  // first touch.
  std::vector<Neighbor>& OverlayFor(VertexId v);

  std::shared_ptr<const CsrGraph> base_;
  VertexId base_num_vertices_ = 0;
  size_t base_capacity_ = 0;

  // overlay_index_[v] >= 0 → adjacency of v lives in overlay_[index];
  // -1 → read the base arrays.
  std::vector<int32_t> overlay_index_;
  std::vector<std::vector<Neighbor>> overlay_;

  // Edges inserted since the last compaction; id = base_capacity_ + index.
  // Tombstoned entries have u == kInvalidVertex.
  std::vector<Edge> delta_edges_;
  // Base edge ids removed since the last compaction.
  std::vector<uint8_t> base_removed_;

  VertexId num_vertices_ = 0;
  size_t num_live_edges_ = 0;
  size_t edits_since_compaction_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace tkc

#endif  // TKC_GRAPH_DELTA_CSR_H_
