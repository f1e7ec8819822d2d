#ifndef TKC_GRAPH_STATS_H_
#define TKC_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/util/random.h"

namespace tkc {

/// Aggregate structural statistics used by the dataset summaries in the
/// benchmark harnesses and by EXPERIMENTS.md.
struct GraphStats {
  VertexId num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_triangles = 0;
  uint32_t max_degree = 0;
  double mean_degree = 0.0;
  /// Global clustering coefficient: 3*triangles / open-wedge count.
  double global_clustering = 0.0;
  /// Mean of per-vertex local clustering coefficients (vertices with
  /// degree < 2 contribute 0).
  double mean_local_clustering = 0.0;
  /// Degeneracy = max K-Core number.
  uint32_t degeneracy = 0;
  uint32_t num_components = 0;
};

GraphStats ComputeGraphStats(const CsrGraph& g);

/// Degree histogram: result[d] = number of vertices with degree d.
std::vector<uint64_t> DegreeHistogram(const CsrGraph& g);

/// Local clustering coefficient of one vertex: triangles through v divided
/// by C(deg(v), 2); 0 when deg < 2.
double LocalClustering(const CsrGraph& g, VertexId v);

/// Estimates the diameter (longest shortest path) of the largest component
/// by double-sweep BFS from `samples` random seeds; returns a lower bound
/// that is exact on trees and typically tight on small-world graphs.
uint32_t EstimateDiameter(const CsrGraph& g, uint32_t samples, Rng& rng);

/// Exact single-source eccentricity (BFS depth) from `source`; unreachable
/// vertices are ignored. Returns 0 for isolated sources.
uint32_t Eccentricity(const CsrGraph& g, VertexId source,
                      VertexId* farthest = nullptr);

}  // namespace tkc

#endif  // TKC_GRAPH_STATS_H_
