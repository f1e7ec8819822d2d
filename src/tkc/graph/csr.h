#ifndef TKC_GRAPH_CSR_H_
#define TKC_GRAPH_CSR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tkc/graph/graph.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/default_init.h"
#include "tkc/util/parallel.h"

namespace tkc {

/// Immutable compressed-sparse-row snapshot of a Graph. Two uses:
///  * cache-friendly read-only traversal for the static algorithms (one
///    contiguous allocation instead of per-vertex vectors);
///  * a frozen copy that keeps the *same EdgeIds* as the source graph, so
///    per-edge attribute arrays (κ, order) remain valid against it.
///
/// Dead edge ids of the source are simply absent from the adjacency; the
/// id space is inherited unchanged.
///
/// Beyond the full (undirected) adjacency, the snapshot carries a
/// degree-ordered *oriented* view: vertices are ranked by (degree, id)
/// ascending and each edge is directed from its lower- to its higher-rank
/// endpoint. Out-lists hold only the higher-rank endpoints (Σ out-degrees
/// = |E|), stay sorted by vertex id, and bound every out-degree by the
/// graph's degeneracy — the standard route to making triangle enumeration
/// O(Σ min-degree over oriented wedges) instead of intersecting full
/// adjacency lists.
class CsrGraph {
 public:
  /// Freezes `g`. O(|V| + |E|). `threads` follows the ResolveThreads
  /// convention (0 = default); the parallel freeze is bit-identical to the
  /// serial one at any count.
  explicit CsrGraph(const Graph& g, int threads = 1);

  /// Freezes any graph-like source exposing NumVertices/Degree/Neighbors/
  /// EdgeCapacity/ForEachEdge with live-only sorted adjacency (Graph,
  /// DeltaCsr). EdgeIds are inherited unchanged — holes included — so
  /// per-edge attribute arrays stay valid against the snapshot. This is the
  /// kernel DeltaCsr::Compact() rebuilds its base through. `threads` only
  /// splits independent per-vertex work (entry copies, adjacency sorts,
  /// oriented scatter); every ordering decision stays serial, so the
  /// result is bit-identical at any thread count.
  template <typename GraphT>
  static CsrGraph Freeze(const GraphT& g, int threads = 1) {
    TKC_SPAN("csr.freeze");
    CsrGraph csr;
    csr.InitFrom(g, threads);
    csr.FinishBuild(threads);
    return csr;
  }

  /// Freezes a parsed edge table without a builder Graph: degree count,
  /// offsets prefix sum, entry scatter and per-vertex sort, then the same
  /// oriented view and audit as every other build. EdgeIds are the table's
  /// positions. The result is byte-identical to freezing the Graph that
  /// AddEdge would build from the same rows, at any `threads`. Text ingest
  /// and the graph cache's load both end here.
  static CsrGraph FromEdgeTable(EdgeTable table, int threads = 1);

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }
  size_t NumEdges() const { return entries_.size() / 2; }
  size_t EdgeCapacity() const { return edges_.size(); }

  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbor span of v.
  const Neighbor* NeighborsBegin(VertexId v) const {
    return entries_.data() + offsets_[v];
  }
  const Neighbor* NeighborsEnd(VertexId v) const {
    return entries_.data() + offsets_[v + 1];
  }

  /// Lightweight random-access view over one adjacency list, so algorithm
  /// templates written against Graph::Neighbors (range-for, indexing) run
  /// unchanged on the CSR snapshot.
  class NeighborSpan {
   public:
    NeighborSpan(const Neighbor* begin, const Neighbor* end)
        : begin_(begin), end_(end) {}
    const Neighbor* begin() const { return begin_; }
    const Neighbor* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    const Neighbor& operator[](size_t i) const { return begin_[i]; }

   private:
    const Neighbor* begin_;
    const Neighbor* end_;
  };

  NeighborSpan Neighbors(VertexId v) const {
    return {NeighborsBegin(v), NeighborsEnd(v)};
  }

  /// Position of `v` in the (degree, id)-ascending vertex order. Edges are
  /// oriented from lower to higher rank.
  uint32_t Rank(VertexId v) const { return rank_[v]; }

  /// Out-degree of `v` in the oriented view (neighbors of higher rank).
  uint32_t OutDegree(VertexId v) const {
    return static_cast<uint32_t>(oriented_offsets_[v + 1] -
                                 oriented_offsets_[v]);
  }

  /// Oriented out-list of `v`: higher-rank neighbors, sorted by vertex id
  /// (the same sort key as the full adjacency, so out-lists intersect with
  /// out-lists by plain merge).
  const Neighbor* OutNeighborsBegin(VertexId v) const {
    return oriented_entries_.data() + oriented_offsets_[v];
  }
  const Neighbor* OutNeighborsEnd(VertexId v) const {
    return oriented_entries_.data() + oriented_offsets_[v + 1];
  }
  NeighborSpan OutNeighbors(VertexId v) const {
    return {OutNeighborsBegin(v), OutNeighborsEnd(v)};
  }

  /// Endpoints of edge `e` ordered by rank (first = lower rank); the
  /// triangle kernels intersect the out-lists of exactly this pair.
  Edge OrientedEdge(EdgeId e) const {
    Edge edge = edges_[e];
    if (rank_[edge.u] > rank_[edge.v]) std::swap(edge.u, edge.v);
    return edge;
  }

  Edge GetEdge(EdgeId e) const { return edges_[e]; }
  bool IsEdgeAlive(EdgeId e) const {
    return e < edges_.size() && edges_[e].u != kInvalidVertex;
  }

  /// Same as GetEdge(e). Kept only because the benchmark harness
  /// (perfbench/layers.cc) still calls it; delete it with that call.
  Edge OriginalEdge(EdgeId e) const { return edges_[e]; }

  EdgeId FindEdge(VertexId u, VertexId v) const;
  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  /// Number of common neighbors of `u` and `v`.
  uint32_t CountCommonNeighbors(VertexId u, VertexId v) const;

  /// Lists all live edge ids in increasing order.
  std::vector<EdgeId> EdgeIds() const;

  /// Invokes fn(w, uw_edge, vw_edge) per common neighbor (sorted merge).
  template <typename Fn>
  void ForEachCommonNeighbor(VertexId u, VertexId v, Fn&& fn) const {
    MergeNeighbors(NeighborsBegin(u), NeighborsEnd(u), NeighborsBegin(v),
                   NeighborsEnd(v), fn);
  }


  /// Invokes fn(EdgeId, Edge) for every edge, increasing id order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (edges_[e].u != kInvalidVertex) fn(e, edges_[e]);
    }
  }

  /// Thaws back into a mutable Graph PRESERVING EdgeIds, holes included —
  /// what `tkc verify` hands its Graph oracles.
  Graph ThawPreservingIds() const;

  /// Raw frozen arrays: the offsets, the sorted adjacency and the edge
  /// table by EdgeId (holes included). Two snapshots are the same graph
  /// with the same EdgeIds iff these compare equal.
  const std::vector<size_t>& RawOffsets() const { return offsets_; }
  std::span<const Neighbor> RawEntries() const { return entries_; }
  const std::vector<Edge>& RawEdges() const { return edges_; }

 private:
  // Adjacency entry storage. resize() leaves it unwritten, so the parallel
  // scatters of a freeze are the first to touch its pages.
  using NeighborArray = DefaultInitVector<Neighbor>;

  CsrGraph() = default;

  // Copies the adjacency and the edge table (holes included) out of `g`;
  // the oriented view and structural audit run afterwards in FinishBuild().
  // The entry copy is split per vertex range (disjoint writes, read-only
  // source), the offsets prefix sum and EdgeId scatter stay serial.
  template <typename GraphT>
  void InitFrom(const GraphT& g, int threads) {
    const VertexId n = g.NumVertices();
    offsets_.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      offsets_[v + 1] = offsets_[v] + g.Degree(v);
    }
    entries_.resize(offsets_[n]);
    ParallelFor(threads, n, [&](int, size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        const auto& adj = g.Neighbors(static_cast<VertexId>(v));
        std::copy(adj.begin(), adj.end(), entries_.begin() + offsets_[v]);
      }
    });
    edges_.assign(g.EdgeCapacity(), Edge{});
    g.ForEachEdge([&](EdgeId e, const Edge& edge) { edges_[e] = edge; });
  }

  void ScatterEdgeTable(VertexId num_vertices, int threads);
  void FinishBuild(int threads);
  void BuildOrientedView(int threads);

  std::vector<size_t> offsets_;  // |V|+1
  NeighborArray entries_;        // 2|E|, sorted per vertex
  std::vector<Edge> edges_;      // by EdgeId (holes preserved)
  // Degree-ordered orientation (see class comment).
  std::vector<uint32_t> rank_;            // |V|, permutation
  std::vector<size_t> oriented_offsets_;  // |V|+1
  NeighborArray oriented_entries_;        // |E|, sorted per vertex
};

}  // namespace tkc

#endif  // TKC_GRAPH_CSR_H_
