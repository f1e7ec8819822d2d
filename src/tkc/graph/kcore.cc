#include "tkc/graph/kcore.h"

#include <algorithm>

namespace tkc {

KCoreResult ComputeKCores(const CsrGraph& g) {
  const VertexId n = g.NumVertices();
  KCoreResult result;
  result.core_of.assign(n, 0);
  result.peel_order.reserve(n);
  if (n == 0) return result;

  // Bucket sort vertices by degree (Batagelj–Zaversnik).
  std::vector<uint32_t> degree(n);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<uint32_t> bucket_start(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bucket_start[degree[v] + 1];
  for (uint32_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<VertexId> order(n);       // vertices sorted by current degree
  std::vector<uint32_t> position(n);    // position of each vertex in `order`
  {
    std::vector<uint32_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      order[position[v]] = v;
      ++cursor[degree[v]];
    }
  }
  // bucket_start[d] = index in `order` of the first vertex with degree d.
  std::vector<uint32_t> bucket(bucket_start.begin(), bucket_start.end() - 1);

  std::vector<bool> peeled(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    result.core_of[v] = degree[v];
    result.max_core = std::max(result.max_core, degree[v]);
    result.peel_order.push_back(v);
    peeled[v] = true;
    for (const Neighbor& nb : g.Neighbors(v)) {
      VertexId u = nb.vertex;
      if (peeled[u] || degree[u] <= degree[v]) continue;
      // Move u one bucket down: swap it with the first vertex of its bucket.
      uint32_t du = degree[u];
      uint32_t pu = position[u];
      uint32_t pw = bucket[du];
      VertexId w = order[pw];
      if (u != w) {
        std::swap(order[pu], order[pw]);
        position[u] = pw;
        position[w] = pu;
      }
      ++bucket[du];
      --degree[u];
    }
  }
  return result;
}

std::vector<VertexId> KCoreMembers(const KCoreResult& r, uint32_t k) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < r.core_of.size(); ++v) {
    if (r.core_of[v] >= k) members.push_back(v);
  }
  return members;
}

}  // namespace tkc
