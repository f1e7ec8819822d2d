#include "tkc/graph/connectivity.h"

#include <deque>

namespace tkc {

ComponentResult ConnectedComponents(const CsrGraph& g) {
  const VertexId n = g.NumVertices();
  ComponentResult result;
  result.component_of.assign(n, kInvalidVertex);
  std::deque<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    if (result.component_of[s] != kInvalidVertex) continue;
    uint32_t comp = result.num_components++;
    result.component_of[s] = comp;
    queue.push_back(s);
    while (!queue.empty()) {
      VertexId v = queue.front();
      queue.pop_front();
      for (const Neighbor& nb : g.Neighbors(v)) {
        if (result.component_of[nb.vertex] == kInvalidVertex) {
          result.component_of[nb.vertex] = comp;
          queue.push_back(nb.vertex);
        }
      }
    }
  }
  return result;
}

bool SameComponent(const CsrGraph& g, VertexId u, VertexId v) {
  if (u == v) return true;
  if (u >= g.NumVertices() || v >= g.NumVertices()) return false;
  std::vector<bool> visited(g.NumVertices(), false);
  std::deque<VertexId> queue{u};
  visited[u] = true;
  while (!queue.empty()) {
    VertexId x = queue.front();
    queue.pop_front();
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (nb.vertex == v) return true;
      if (!visited[nb.vertex]) {
        visited[nb.vertex] = true;
        queue.push_back(nb.vertex);
      }
    }
  }
  return false;
}

std::vector<VertexId> ReachableFrom(const CsrGraph& g, VertexId start) {
  std::vector<VertexId> out;
  if (start >= g.NumVertices()) return out;
  std::vector<bool> visited(g.NumVertices(), false);
  std::deque<VertexId> queue{start};
  visited[start] = true;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    out.push_back(v);
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (!visited[nb.vertex]) {
        visited[nb.vertex] = true;
        queue.push_back(nb.vertex);
      }
    }
  }
  return out;
}

}  // namespace tkc
