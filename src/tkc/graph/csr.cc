#include "tkc/graph/csr.h"

#include <algorithm>
#include <numeric>

#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/trace.h"
#include "tkc/util/check.h"

#if TKC_CHECK_LEVEL >= 1
#include "tkc/verify/structural.h"
#endif

namespace tkc {

CsrGraph::CsrGraph(const Graph& g, int threads) {
  InitFrom(g, threads);
  FinishBuild(threads);
  TKC_VERIFY_L2(verify::CheckOrDie(verify::CheckMirrorConsistency(g, *this),
                                   "CsrGraph::CsrGraph"));
}

CsrGraph CsrGraph::FromFrozenParts(std::vector<size_t> offsets,
                                   std::vector<Neighbor> entries,
                                   std::vector<Edge> edges, int threads) {
  CsrGraph csr;
  csr.offsets_ = std::move(offsets);
  csr.entries_ = std::move(entries);
  csr.edges_ = std::move(edges);
  csr.edge_capacity_ = csr.edges_.size();
  csr.FinishBuild(threads);
  return csr;
}

void CsrGraph::FinishBuild(int threads) {
  TKC_SPAN("csr.freeze");
  BuildOrientedView(threads);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("csr.freeze.builds").Add(1);
  registry.GetCounter("csr.freeze.entries").Add(entries_.size());
  TKC_VERIFY_L1(verify::CheckOrDie(verify::CheckCsrStructure(*this),
                                   "CsrGraph::FinishBuild"));
}

void CsrGraph::BuildOrientedView(int threads) {
  const VertexId n = NumVertices();
  rank_.resize(n);
  std::vector<VertexId> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), VertexId{0});
  std::sort(by_rank.begin(), by_rank.end(), [&](VertexId a, VertexId b) {
    const uint32_t da = Degree(a), db = Degree(b);
    return da != db ? da < db : a < b;
  });
  for (VertexId i = 0; i < n; ++i) rank_[by_rank[i]] = i;

  // Out-degree counting and the filtered scatter are independent per
  // vertex; only the prefix sum between them is serial. The out-counts are
  // the same at any thread count, so the view stays bit-identical.
  std::vector<size_t> out_count(n, 0);
  ParallelFor(threads, n, [&](int, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      size_t out = 0;
      for (const Neighbor& nb : Neighbors(static_cast<VertexId>(v))) {
        out += rank_[nb.vertex] > rank_[v];
      }
      out_count[v] = out;
    }
  });
  oriented_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    oriented_offsets_[v + 1] = oriented_offsets_[v] + out_count[v];
  }
  oriented_entries_.resize(oriented_offsets_[n]);
  ParallelFor(threads, n, [&](int, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      // The full list is sorted by vertex id; filtering preserves that, so
      // out-lists intersect by plain merge on the same key.
      Neighbor* out = oriented_entries_.data() + oriented_offsets_[v];
      for (const Neighbor& nb : Neighbors(static_cast<VertexId>(v))) {
        if (rank_[nb.vertex] > rank_[v]) *out++ = nb;
      }
    }
  });
}

EdgeId CsrGraph::FindEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices() || u == v) {
    return kInvalidEdge;
  }
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const Neighbor* it = std::lower_bound(
      NeighborsBegin(u), NeighborsEnd(u), Neighbor{v, kInvalidEdge});
  if (it == NeighborsEnd(u) || it->vertex != v) return kInvalidEdge;
  return it->edge;
}

uint32_t CsrGraph::CountCommonNeighbors(VertexId u, VertexId v) const {
  uint32_t count = 0;
  ForEachCommonNeighbor(u, v, [&](VertexId, EdgeId, EdgeId) { ++count; });
  return count;
}

std::vector<EdgeId> CsrGraph::EdgeIds() const {
  std::vector<EdgeId> ids;
  ids.reserve(NumEdges());
  ForEachEdge([&](EdgeId e, const Edge&) { ids.push_back(e); });
  return ids;
}

std::vector<uint32_t> CsrGraph::ComputeSupports(int threads) const {
  return ComputeEdgeSupports(*this, threads);
}

uint64_t CsrGraph::CountTriangles() const {
  uint64_t count = 0;
  ForEachEdge([&](EdgeId, const Edge& edge) {
    ForEachCommonNeighbor(edge.u, edge.v,
                          [&](VertexId w, EdgeId, EdgeId) {
                            count += (w > edge.v);
                          });
  });
  return count;
}

Graph CsrGraph::ThawPreservingIds() const {
  const VertexId n = NumVertices();
  std::vector<std::vector<Neighbor>> adjacency(n);
  for (VertexId v = 0; v < n; ++v) {
    adjacency[v].assign(NeighborsBegin(v), NeighborsEnd(v));
  }
  return Graph::FromParts(std::move(adjacency), edges_);
}

}  // namespace tkc
