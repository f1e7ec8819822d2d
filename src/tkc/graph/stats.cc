#include "tkc/graph/stats.h"

#include <algorithm>
#include <deque>

#include "tkc/graph/connectivity.h"
#include "tkc/graph/kcore.h"
#include "tkc/graph/triangle.h"

namespace tkc {

double LocalClustering(const CsrGraph& g, VertexId v) {
  uint64_t d = g.Degree(v);
  if (d < 2) return 0.0;
  // Triangles through v = sum over incident edges of common neighbors,
  // each triangle counted twice (once per incident edge).
  uint64_t closed_twice = 0;
  for (const Neighbor& nb : g.Neighbors(v)) {
    closed_twice += g.CountCommonNeighbors(v, nb.vertex);
  }
  return static_cast<double>(closed_twice) / (static_cast<double>(d) * (d - 1));
}

GraphStats ComputeGraphStats(const CsrGraph& g) {
  GraphStats stats;
  stats.num_vertices = g.NumVertices();
  stats.num_edges = g.NumEdges();
  if (stats.num_vertices == 0) return stats;

  uint64_t wedge_count = 0;  // open + closed paths of length 2
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint64_t d = g.Degree(v);
    stats.max_degree = std::max<uint32_t>(stats.max_degree,
                                          static_cast<uint32_t>(d));
    wedge_count += d * (d - 1) / 2;
  }
  stats.mean_degree =
      2.0 * static_cast<double>(stats.num_edges) / stats.num_vertices;

  stats.num_triangles = CountTriangles(g);
  stats.global_clustering =
      wedge_count == 0
          ? 0.0
          : 3.0 * static_cast<double>(stats.num_triangles) / wedge_count;

  double local_sum = 0.0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    local_sum += LocalClustering(g, v);
  }
  stats.mean_local_clustering = local_sum / stats.num_vertices;

  stats.degeneracy = ComputeKCores(g).max_core;
  stats.num_components = ConnectedComponents(g).num_components;
  return stats;
}

std::vector<uint64_t> DegreeHistogram(const CsrGraph& g) {
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
  }
  std::vector<uint64_t> hist(max_degree + 1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) ++hist[g.Degree(v)];
  return hist;
}

uint32_t Eccentricity(const CsrGraph& g, VertexId source, VertexId* farthest) {
  std::vector<uint32_t> dist(g.NumVertices(), UINT32_MAX);
  std::deque<VertexId> queue{source};
  dist[source] = 0;
  uint32_t best = 0;
  VertexId best_v = source;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    if (dist[v] > best) {
      best = dist[v];
      best_v = v;
    }
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (dist[nb.vertex] == UINT32_MAX) {
        dist[nb.vertex] = dist[v] + 1;
        queue.push_back(nb.vertex);
      }
    }
  }
  if (farthest != nullptr) *farthest = best_v;
  return best;
}

uint32_t EstimateDiameter(const CsrGraph& g, uint32_t samples, Rng& rng) {
  if (g.NumVertices() == 0) return 0;
  uint32_t best = 0;
  for (uint32_t i = 0; i < samples; ++i) {
    VertexId start = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    // Double sweep: BFS to the farthest vertex, then BFS from there.
    VertexId far = start;
    Eccentricity(g, start, &far);
    best = std::max(best, Eccentricity(g, far, nullptr));
  }
  return best;
}

}  // namespace tkc
