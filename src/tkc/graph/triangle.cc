#include "tkc/graph/triangle.h"

#include <algorithm>
#include <memory>

#include "tkc/graph/intersect.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"

namespace tkc {

namespace {

// Shared counters for every triangle-enumeration pass, whichever layer
// runs it (see docs/observability.md for the naming scheme).
// `triangle.wedges_examined` is the *actual* intersection work the pass
// performed — merge iterations plus gallop probes — not the old
// min-degree upper bound, so the value stays comparable between the
// full-adjacency and oriented enumeration modes.
void RecordEnumeration(const IntersectStats& stats, uint64_t triangles) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& wedge_counter =
      registry.GetCounter("triangle.wedges_examined");
  static obs::Counter& merge_counter =
      registry.GetCounter("triangle.merge_steps");
  static obs::Counter& gallop_counter =
      registry.GetCounter("triangle.gallop_probes");
  static obs::Counter& triangle_counter =
      registry.GetCounter("triangle.triangles_found");
  wedge_counter.Add(stats.Total());
  merge_counter.Add(stats.merge_steps);
  gallop_counter.Add(stats.gallop_probes);
  triangle_counter.Add(triangles);
  TKC_SPAN_COUNTER("wedges_examined", stats.Total());
  TKC_SPAN_COUNTER("triangles_found", triangles);
}

// Counted sorted-merge over the full adjacency of {u, v}: invokes
// fn(w, uw_edge, vw_edge) per common neighbor and returns the number of
// merge iterations actually spent.
template <typename Fn>
uint64_t MergeCommonNeighbors(const CsrGraph& g, VertexId u, VertexId v,
                              Fn&& fn) {
  const auto& a = g.Neighbors(u);
  const auto& b = g.Neighbors(v);
  const Neighbor* ab = std::to_address(a.begin());
  const Neighbor* bb = std::to_address(b.begin());
  return MergeNeighbors(ab, ab + a.size(), bb, bb + b.size(), fn);
}

}  // namespace

std::vector<uint32_t> ComputeEdgeSupports(const CsrGraph& g, int threads) {
  TKC_SPAN("triangle.supports");
  threads = ResolveThreads(threads);
  const size_t cap = g.EdgeCapacity();
  std::vector<uint32_t> support(cap, 0);
  uint64_t triangles = 0;
  IntersectStats stats;

  if (threads <= 1 || cap == 0) {
    // ParallelFor's serial path: no shards to reduce, and the same
    // parallel_for.chunk span as at any thread count.
    ParallelFor(1, cap, [&](int, size_t begin, size_t end) {
      ForEachOrientedTriangleInRange(g, begin, end, stats,
                                     [&](EdgeId e, EdgeId aw, EdgeId bw) {
                                       ++support[e];
                                       ++support[aw];
                                       ++support[bw];
                                       ++triangles;
                                     });
    });
    RecordEnumeration(stats, triangles);
    return support;
  }

  // Each worker owns a full-size partial-support shard and discovers the
  // triangles owned by its static chunk of edge ids; a second pass reduces
  // the shards in fixed worker order. Plain uint32 additions commute
  // exactly, so the output is identical to the serial path for any thread
  // count.
  struct Shard {
    std::vector<uint32_t> support;
    uint64_t triangles = 0;
    IntersectStats stats;
  };
  std::vector<Shard> shards(static_cast<size_t>(threads));
  ParallelFor(threads, cap, [&](int worker, size_t begin, size_t end) {
    Shard& shard = shards[static_cast<size_t>(worker)];
    shard.support.assign(cap, 0);
    uint32_t* partial = shard.support.data();
    ForEachOrientedTriangleInRange(g, begin, end, shard.stats,
                                   [&](EdgeId e, EdgeId aw, EdgeId bw) {
                                     ++partial[e];
                                     ++partial[aw];
                                     ++partial[bw];
                                     ++shard.triangles;
                                   });
  });
  ParallelFor(threads, cap, [&](int, size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      uint32_t sum = 0;
      for (const Shard& shard : shards) {
        if (!shard.support.empty()) sum += shard.support[e];
      }
      support[e] = sum;
    }
  });
  for (const Shard& shard : shards) {
    triangles += shard.triangles;
    stats += shard.stats;
  }
  RecordEnumeration(stats, triangles);
  return support;
}

std::vector<std::vector<OrientedTriangle>> RecordOrientedTriangles(
    const CsrGraph& g, int threads) {
  TKC_SPAN("triangle.supports");
  threads = ResolveThreads(threads);
  std::vector<std::vector<OrientedTriangle>> record(
      static_cast<size_t>(threads));
  std::vector<IntersectStats> partial(static_cast<size_t>(threads));
  ParallelFor(threads, g.EdgeCapacity(),
              [&](int worker, size_t begin, size_t end) {
    std::vector<OrientedTriangle>& list = record[static_cast<size_t>(worker)];
    ForEachOrientedTriangleInRange(
        g, begin, end, partial[static_cast<size_t>(worker)],
        [&](EdgeId e, EdgeId e1, EdgeId e2) { list.push_back({e, e1, e2}); });
  });
  uint64_t triangles = 0;
  IntersectStats stats;
  for (size_t t = 0; t < record.size(); ++t) {
    triangles += record[t].size();
    stats += partial[t];
  }
  RecordEnumeration(stats, triangles);
  return record;
}

std::vector<uint32_t> ComputeEdgeSupportsFullScan(const CsrGraph& g) {
  TKC_SPAN("triangle.supports_full");
  std::vector<uint32_t> support(g.EdgeCapacity(), 0);
  uint64_t triangles = 0;
  IntersectStats stats;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    stats.merge_steps += MergeCommonNeighbors(
        g, edge.u, edge.v, [&](VertexId w, EdgeId uw, EdgeId vw) {
          if (w <= edge.v) return;
          ++support[e];
          ++support[uw];
          ++support[vw];
          ++triangles;
        });
  });
  RecordEnumeration(stats, triangles);
  return support;
}

uint64_t CountTriangles(const CsrGraph& g, int threads) {
  TKC_SPAN("triangle.count");
  threads = ResolveThreads(threads);
  struct Partial {
    uint64_t triangles = 0;
    IntersectStats stats;
  };
  std::vector<Partial> partial(static_cast<size_t>(std::max(threads, 1)));
  ParallelFor(threads, g.EdgeCapacity(),
              [&](int worker, size_t begin, size_t end) {
    Partial& p = partial[static_cast<size_t>(worker)];
    ForEachOrientedTriangleInRange(
        g, begin, end, p.stats,
        [&](EdgeId, EdgeId, EdgeId) { ++p.triangles; });
  });
  uint64_t n = 0;
  IntersectStats stats;
  for (const Partial& p : partial) {
    n += p.triangles;
    stats += p.stats;
  }
  RecordEnumeration(stats, n);
  return n;
}

std::vector<Triangle> ListTriangles(const CsrGraph& g) {
  TKC_SPAN("triangle.list");
  std::vector<Triangle> out;
  IntersectStats stats;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    stats.merge_steps += MergeCommonNeighbors(
        g, edge.u, edge.v, [&](VertexId w, EdgeId uw, EdgeId vw) {
          if (w > edge.v) out.push_back(Triangle{edge.u, edge.v, w, e, uw, vw});
        });
  });
  RecordEnumeration(stats, out.size());
  return out;
}

TriangleStats ComputeTriangleStats(const CsrGraph& g) {
  TriangleStats stats;
  std::vector<uint32_t> support = ComputeEdgeSupports(g);
  uint64_t total_support = 0;
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    total_support += support[e];
    if (support[e] > stats.max_edge_support) {
      stats.max_edge_support = support[e];
    }
  });
  // Every triangle contributes support to exactly 3 edges.
  stats.triangle_count = total_support / 3;
  stats.mean_edge_support =
      g.NumEdges() == 0
          ? 0.0
          : static_cast<double>(total_support) / static_cast<double>(
                                                     g.NumEdges());
  return stats;
}

}  // namespace tkc
