#ifndef TKC_GRAPH_GRAPH_H_
#define TKC_GRAPH_GRAPH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "tkc/util/check.h"

namespace tkc {

using VertexId = uint32_t;
using EdgeId = uint32_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Endpoints of an edge; normalized so that `u < v`.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// One adjacency entry: the neighbor vertex and the id of the connecting
/// edge. Adjacency lists are kept sorted by `vertex` so that common-neighbor
/// queries are sorted-merge intersections.
struct Neighbor {
  VertexId vertex;
  EdgeId edge;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    return a.vertex < b.vertex;
  }
};

/// The sorted two-pointer merge of adjacency ranges [ab, ae) and [bb, be):
/// invokes `fn(VertexId w, EdgeId ea, EdgeId eb)` per common vertex in
/// ascending `w`, with `ea` from the first range and `eb` from the second.
/// Returns the loop iterations spent (the `triangle.merge_steps` unit).
/// Every common-neighbor query in the library ends in this loop.
template <typename Fn>
uint64_t MergeNeighbors(const Neighbor* ab, const Neighbor* ae,
                        const Neighbor* bb, const Neighbor* be, Fn&& fn) {
  uint64_t steps = 0;
  while (ab != ae && bb != be) {
    ++steps;
    if (ab->vertex < bb->vertex) {
      ++ab;
    } else if (ab->vertex > bb->vertex) {
      ++bb;
    } else {
      fn(ab->vertex, ab->edge, bb->edge);
      ++ab;
      ++bb;
    }
  }
  return steps;
}

/// Dynamic undirected simple graph.
///
/// This is the substrate every algorithm in the library runs on. Design
/// points, chosen for the Triangle K-Core workload:
///
///  * Adjacency lists are sorted vectors, so listing the triangles on edge
///    (u,v) is a linear merge of N(u) and N(v) — the operation Algorithms
///    1/2 perform constantly. Insertion/removal of an edge is O(deg).
///  * Every edge gets a dense `EdgeId`. Removing an edge tombstones its id;
///    ids are never reused, so per-edge attribute arrays (κ values, order
///    stamps) indexed by EdgeId stay valid across mutations. `EdgeCapacity()`
///    is the size such arrays must have.
///  * Vertices are never removed (matching the paper's model, where dynamic
///    change is edge insertion/deletion); "removing" a vertex is removing
///    its incident edges.
///
/// Not thread-safe for concurrent mutation.
class Graph {
 public:
  Graph() = default;
  /// Creates a graph with `num_vertices` isolated vertices.
  explicit Graph(VertexId num_vertices) : adjacency_(num_vertices) {}

  // Copyable (snapshots are taken by the dual-view and dynamic tooling) and
  // movable.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Bulk constructor for the parallel ingest pipeline and the cache thaw
  /// path: adopts a pre-built adjacency and dense edge table instead of
  /// paying AddEdge's per-row O(deg) insertion. The caller must supply
  /// exactly what the incremental path would have produced — per-vertex
  /// lists sorted by neighbor id mirroring `edges`, edges normalized
  /// u < v, dead ids tombstoned with u == kInvalidVertex — and a level-1
  /// structural audit (verify::CheckGraphStructure) holds it to that.
  static Graph FromParts(std::vector<std::vector<Neighbor>> adjacency,
                         std::vector<Edge> edges);

  /// Appends a new isolated vertex and returns its id.
  VertexId AddVertex();

  /// Grows the vertex set so that ids [0, n) are all valid.
  void EnsureVertices(VertexId n);

  /// Inserts the undirected edge {u,v}. Returns its id. If the edge already
  /// exists, returns the existing id and sets `*inserted` (when provided) to
  /// false. Self-loops are rejected with a check failure.
  EdgeId AddEdge(VertexId u, VertexId v, bool* inserted = nullptr);

  /// Removes edge {u,v}; returns its (now dead) id, or kInvalidEdge if the
  /// edge was not present.
  EdgeId RemoveEdge(VertexId u, VertexId v);

  /// Removes the edge with id `e`. The id must refer to a live edge.
  void RemoveEdgeById(EdgeId e);

  /// Returns the id of edge {u,v}, or kInvalidEdge if absent.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  VertexId NumVertices() const {
    return static_cast<VertexId>(adjacency_.size());
  }

  /// Number of live edges.
  size_t NumEdges() const { return num_live_edges_; }

  /// One past the largest EdgeId ever allocated. Per-edge attribute arrays
  /// must be sized to this (dead ids leave holes).
  size_t EdgeCapacity() const { return edges_.size(); }

  bool IsEdgeAlive(EdgeId e) const {
    return e < edges_.size() && edges_[e].u != kInvalidVertex;
  }

  /// Endpoints of live edge `e` (normalized u < v).
  Edge GetEdge(EdgeId e) const {
    TKC_DCHECK(IsEdgeAlive(e));
    return edges_[e];
  }

  uint32_t Degree(VertexId v) const {
    TKC_DCHECK(v < adjacency_.size());
    return static_cast<uint32_t>(adjacency_[v].size());
  }

  /// Sorted adjacency of `v` (live edges only).
  const std::vector<Neighbor>& Neighbors(VertexId v) const {
    TKC_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }

  /// Invokes `fn(EdgeId, Edge)` for every live edge, in increasing id order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (edges_[e].u != kInvalidVertex) fn(e, edges_[e]);
    }
  }

  /// Lists all live edge ids in increasing order.
  std::vector<EdgeId> EdgeIds() const;

  /// Invokes `fn(VertexId w, EdgeId uw, EdgeId vw)` for every common
  /// neighbor `w` of `u` and `v` — i.e., for every triangle on edge {u,v}
  /// (whether or not {u,v} itself is an edge).
  template <typename Fn>
  void ForEachCommonNeighbor(VertexId u, VertexId v, Fn&& fn) const {
    const auto& a = Neighbors(u);
    const auto& b = Neighbors(v);
    MergeNeighbors(a.data(), a.data() + a.size(), b.data(), b.data() + b.size(),
                   fn);
  }

  /// Number of common neighbors of `u` and `v`.
  uint32_t CountCommonNeighbors(VertexId u, VertexId v) const;

  /// Total degree (= 2 * NumEdges); handy sanity value for tests.
  size_t TotalDegree() const;

  /// Test-only: writable view of `v`'s adjacency list, so the verify
  /// oracles' fault-detection tests can seed structural corruption (e.g.
  /// break the sort order) and prove it is caught. Never call from library
  /// code — every other method assumes the lists stay sorted.
  std::vector<Neighbor>& MutableNeighborsForTest(VertexId v) {
    TKC_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  // Dense edge table; a dead edge has u == kInvalidVertex.
  std::vector<Edge> edges_;
  size_t num_live_edges_ = 0;
};

}  // namespace tkc

#endif  // TKC_GRAPH_GRAPH_H_
