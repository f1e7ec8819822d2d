#include "tkc/graph/csr.h"

#include <algorithm>

#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"

#if TKC_CHECK_LEVEL >= 1
#include "tkc/verify/structural.h"
#endif

namespace tkc {

CsrGraph::CsrGraph(const Graph& g, int threads)
    : CsrGraph(Freeze(g, threads)) {
  TKC_VERIFY_L2(verify::CheckOrDie(verify::CheckMirrorConsistency(g, *this),
                                   "CsrGraph::CsrGraph"));
}

namespace {

#if TKC_CHECK_LEVEL >= 2
// The builder Graph that AddEdge makes from the same rows: the level-2
// mirror of a table freeze, as the Graph is of CsrGraph(const Graph&).
Graph GraphByAddEdge(const EdgeTable& table) {
  Graph g(table.num_vertices);
  for (const Edge& e : table.edges) g.AddEdge(e.u, e.v);
  return g;
}
#endif

}  // namespace

CsrGraph CsrGraph::FromEdgeTable(EdgeTable table, int threads) {
  TKC_SPAN("csr.freeze");
  threads = ResolveThreads(threads);
#if TKC_CHECK_LEVEL >= 2
  const Graph mirror = GraphByAddEdge(table);
#endif
  CsrGraph csr;
  csr.edges_ = std::move(table.edges);
  csr.ScatterEdgeTable(table.num_vertices, threads);
  csr.FinishBuild(threads);
  TKC_VERIFY_L2(verify::CheckOrDie(
      verify::CheckMirrorConsistency(mirror, csr), "CsrGraph::FromEdgeTable"));
  return csr;
}

// Split by EdgeId slices with a final merge: worker t counts, then scatters,
// only the entries of its own slice of the table (one |V|-sized count array
// per worker). Between the two passes a per-vertex merge turns the slice
// counts into each slice's first slot in the vertex's list, so the slices
// write disjoint slots and every list fills in EdgeId order before it is
// sorted.
void CsrGraph::ScatterEdgeTable(VertexId n, int threads) {
  const size_t workers = static_cast<size_t>(threads);
  const size_t m = edges_.size();
  std::vector<std::vector<uint32_t>> slot(workers);
  ParallelFor(threads, workers, [&](int, size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      slot[t].assign(n, 0);
      for (size_t e = m * t / workers; e < m * (t + 1) / workers; ++e) {
        ++slot[t][edges_[e].u];
        ++slot[t][edges_[e].v];
      }
    }
  });
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  ParallelFor(threads, n, [&](int, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      uint32_t degree = 0;
      for (std::vector<uint32_t>& counts : slot) {
        const uint32_t count = counts[v];
        counts[v] = degree;
        degree += count;
      }
      offsets_[v + 1] = degree;
    }
  });
  for (VertexId v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  entries_.resize(offsets_[n]);
  ParallelFor(threads, workers, [&](int, size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      std::vector<uint32_t>& next = slot[t];
      for (size_t e = m * t / workers; e < m * (t + 1) / workers; ++e) {
        const Edge edge = edges_[e];
        const auto id = static_cast<EdgeId>(e);
        entries_[offsets_[edge.u] + next[edge.u]++] = Neighbor{edge.v, id};
        entries_[offsets_[edge.v] + next[edge.v]++] = Neighbor{edge.u, id};
      }
      std::vector<uint32_t>().swap(next);
    }
  });
  // Neighbor ids in one list are distinct (the table has no duplicates), so
  // the sorted order does not depend on the scatter's. The sort ranges are
  // balanced by entries: the hubs of a skewed graph share low vertex ids.
  std::vector<size_t> bounds(workers + 1, n);
  bounds[0] = 0;
  for (size_t t = 1; t < workers; ++t) {
    bounds[t] = static_cast<size_t>(
        std::lower_bound(offsets_.begin() + bounds[t - 1],
                         offsets_.begin() + n, offsets_[n] / workers * t) -
        offsets_.begin());
  }
  ParallelFor(threads, workers, [&](int, size_t begin, size_t end) {
    for (size_t v = bounds[begin]; v < bounds[end]; ++v) {
      std::sort(entries_.begin() + offsets_[v],
                entries_.begin() + offsets_[v + 1]);
    }
  });
}

void CsrGraph::FinishBuild(int threads) {
  BuildOrientedView(threads);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("csr.freeze.builds").Add(1);
  registry.GetCounter("csr.freeze.entries").Add(entries_.size());
  TKC_VERIFY_L1(verify::CheckOrDie(verify::CheckCsrStructure(*this),
                                   "CsrGraph::FinishBuild"));
}

void CsrGraph::BuildOrientedView(int threads) {
  const VertexId n = NumVertices();
  // (degree, id)-ascending rank by a counting sort on degree that visits
  // vertices in id order, so ties keep id order: O(|V| + max degree).
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) max_degree = std::max(max_degree, Degree(v));
  std::vector<uint32_t> next_rank(size_t{max_degree} + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++next_rank[Degree(v) + 1];
  for (uint32_t d = 1; d <= max_degree; ++d) next_rank[d] += next_rank[d - 1];
  rank_.resize(n);
  for (VertexId v = 0; v < n; ++v) rank_[v] = next_rank[Degree(v)]++;

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

Graph CsrGraph::ThawPreservingIds() const {
  const VertexId n = NumVertices();
  std::vector<std::vector<Neighbor>> adjacency(n);
  for (VertexId v = 0; v < n; ++v) {
    adjacency[v].assign(NeighborsBegin(v), NeighborsEnd(v));
  }
  return Graph::FromParts(std::move(adjacency), edges_);
}

}  // namespace tkc
