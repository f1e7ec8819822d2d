#ifndef TKC_GRAPH_TRIANGLE_H_
#define TKC_GRAPH_TRIANGLE_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/graph.h"
#include "tkc/graph/intersect.h"

namespace tkc {

/// One triangle: vertices `a < b < c` and the three edge ids.
struct Triangle {
  VertexId a, b, c;
  EdgeId ab, ac, bc;
};

/// Invokes `fn(VertexId w, EdgeId e1, EdgeId e2)` for each triangle on the
/// live edge `e = {u,v}`, where `w` is the apex, `e1 = {u,w}`, `e2 = {v,w}`.
/// GraphT is Graph, CsrGraph, or DeltaCsr (any type with GetEdge/Neighbors).
/// Triples arrive in ascending `w` (IntersectNeighbors, intersect.h).
template <typename GraphT, typename Fn>
void ForEachTriangleOnEdge(const GraphT& g, EdgeId e, Fn&& fn) {
  Edge edge = g.GetEdge(e);
  IntersectNeighbors(g, edge.u, edge.v, std::forward<Fn>(fn));
}

/// Per-edge triangle supports, indexed by EdgeId (size = g.EdgeCapacity();
/// dead ids hold 0). The support kernel runs on the degree-ordered
/// oriented view: each triangle is found exactly once at the edge joining
/// its two lowest-rank vertices by intersecting the endpoints' out-lists,
/// so per-edge work is bounded by the out-degrees (≤ degeneracy) instead of
/// min full degree. `threads` follows the ResolveThreads convention
/// (0 = process default, 1 = serial); work is statically partitioned and
/// per-thread partial supports are reduced in thread order, so the result
/// is identical — bit for bit — for every thread count.
std::vector<uint32_t> ComputeEdgeSupports(const CsrGraph& g, int threads = 1);

/// The oriented enumeration behind ComputeEdgeSupports(const CsrGraph&):
/// invokes `fn(EdgeId e, EdgeId e1, EdgeId e2)` exactly once per triangle
/// owned by the edge ids [begin, end), with `e` the edge joining the
/// triangle's two lowest-rank vertices. Disjoint ranges covering
/// [0, g.EdgeCapacity()) visit every triangle exactly once.
template <typename Fn>
void ForEachOrientedTriangleInRange(const CsrGraph& g, size_t begin,
                                    size_t end, IntersectStats& stats,
                                    Fn&& fn) {
  for (EdgeId e = static_cast<EdgeId>(begin); e < end; ++e) {
    if (!g.IsEdgeAlive(e)) continue;
    const Edge oe = g.OrientedEdge(e);
    IntersectSortedHybrid(
        g.OutNeighborsBegin(oe.u), g.OutNeighborsEnd(oe.u),
        g.OutNeighborsBegin(oe.v), g.OutNeighborsEnd(oe.v), stats,
        [&](VertexId, EdgeId aw, EdgeId bw) { fn(e, aw, bw); });
  }
}

/// One triangle as the oriented enumeration reports it: `e` joins the
/// triangle's two lowest-rank vertices, `e1` and `e2` are its other edges.
struct OrientedTriangle {
  EdgeId e, e1, e2;
};

/// The oriented enumeration of ComputeEdgeSupports(g, threads), recording
/// each triangle instead of counting it: list t holds the triangles of
/// worker t's static chunk of edge ids, in enumeration order, and every
/// triangle is in exactly one list. Emits the same `triangle.*` counters and
/// `triangle.supports` span as the counting pass. `threads` follows the
/// ResolveThreads convention.
std::vector<std::vector<OrientedTriangle>> RecordOrientedTriangles(
    const CsrGraph& g, int threads);

/// Reference support pass over the *full* (undirected) adjacency — the
/// pre-oriented kernel, kept as the differential baseline for tests and the
/// full-vs-oriented comparison in bench_micro. Output is value-identical to
/// ComputeEdgeSupports(g, ...); only the work profile differs.
std::vector<uint32_t> ComputeEdgeSupportsFullScan(const CsrGraph& g);

/// Total number of distinct triangles in the graph.
uint64_t CountTriangles(const CsrGraph& g, int threads = 1);

/// Invokes `fn(const Triangle&)` exactly once per triangle in the graph.
/// Enumeration is ordered: a < b < c.
template <typename GraphT, typename Fn>
void ForEachTriangle(const GraphT& g, Fn&& fn) {
  // Forward algorithm on the natural vertex order: for each edge {u,v} with
  // u < v, scan common neighbors w and keep only w > v, so every triangle
  // is reported at its lexicographically smallest edge.
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    g.ForEachCommonNeighbor(edge.u, edge.v,
                            [&](VertexId w, EdgeId uw, EdgeId vw) {
                              if (w > edge.v) {
                                fn(Triangle{edge.u, edge.v, w, e, uw, vw});
                              }
                            });
  });
}

/// Lists all triangles (see ForEachTriangle for ordering).
std::vector<Triangle> ListTriangles(const CsrGraph& g);

/// Global and per-vertex clustering statistics; used by generators and by
/// dataset summaries in the benchmark harnesses.
struct TriangleStats {
  uint64_t triangle_count = 0;
  uint32_t max_edge_support = 0;
  double mean_edge_support = 0.0;
};

TriangleStats ComputeTriangleStats(const CsrGraph& g);

}  // namespace tkc

#endif  // TKC_GRAPH_TRIANGLE_H_
