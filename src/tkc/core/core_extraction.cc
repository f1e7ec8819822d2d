#include "tkc/core/core_extraction.h"

#include <algorithm>
#include <deque>

#include "tkc/graph/triangle.h"
#include "tkc/util/check.h"

namespace tkc {

namespace {

// Fills sub.vertices from sub.edges.
void CollectVertices(const CsrGraph& g, CoreSubgraph* sub) {
  sub->vertices.clear();
  for (EdgeId e : sub->edges) {
    Edge edge = g.GetEdge(e);
    sub->vertices.push_back(edge.u);
    sub->vertices.push_back(edge.v);
  }
  std::sort(sub->vertices.begin(), sub->vertices.end());
  sub->vertices.erase(
      std::unique(sub->vertices.begin(), sub->vertices.end()),
      sub->vertices.end());
}

// BFS over the triangle-adjacency of edges whose κ >= k, starting at
// `seed`. Marks visited edges in `visited` and returns them.
std::vector<EdgeId> TriangleBfs(const CsrGraph& g,
                                const std::vector<uint32_t>& kappa,
                                uint32_t k, EdgeId seed,
                                std::vector<bool>& visited) {
  std::vector<EdgeId> component;
  std::deque<EdgeId> queue{seed};
  visited[seed] = true;
  while (!queue.empty()) {
    EdgeId e = queue.front();
    queue.pop_front();
    component.push_back(e);
    ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
      if (kappa[e1] < k || kappa[e2] < k) return;  // triangle leaves G_k
      for (EdgeId f : {e1, e2}) {
        if (!visited[f]) {
          visited[f] = true;
          queue.push_back(f);
        }
      }
    });
  }
  std::sort(component.begin(), component.end());
  return component;
}

}  // namespace

CoreSubgraph TriangleKCore(const CsrGraph& g,
                           const std::vector<uint32_t>& kappa, uint32_t k) {
  CoreSubgraph sub;
  sub.k = k;
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    if (kappa[e] >= k) sub.edges.push_back(e);
  });
  CollectVertices(g, &sub);
  TKC_VERIFY_L2(TKC_CHECK_MSG(VerifyTriangleKCore(g, sub.edges, k),
                              "TriangleKCore: Definition 3 violated"));
  return sub;
}

CoreSubgraph MaxTriangleCoreOf(const CsrGraph& g,
                               const std::vector<uint32_t>& kappa, EdgeId e) {
  TKC_CHECK(g.IsEdgeAlive(e));
  CoreSubgraph sub;
  sub.k = kappa[e];
  std::vector<bool> visited(g.EdgeCapacity(), false);
  sub.edges = TriangleBfs(g, kappa, sub.k, e, visited);
  CollectVertices(g, &sub);
  return sub;
}

std::vector<CoreSubgraph> TriangleConnectedCores(
    const CsrGraph& g, const std::vector<uint32_t>& kappa, uint32_t k) {
  std::vector<CoreSubgraph> cores;
  std::vector<bool> visited(g.EdgeCapacity(), false);
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    if (kappa[e] < k || visited[e]) return;
    if (k >= 1) {
      // Skip edges with no triangle inside G_k: they are not part of any
      // Triangle K-Core with number >= 1.
      bool has_triangle = false;
      ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
        if (kappa[e1] >= k && kappa[e2] >= k) has_triangle = true;
      });
      if (!has_triangle) return;
    }
    CoreSubgraph sub;
    sub.k = k;
    sub.edges = TriangleBfs(g, kappa, k, e, visited);
    CollectVertices(g, &sub);
    cores.push_back(std::move(sub));
  });
  return cores;
}

bool VerifyTriangleKCore(const CsrGraph& g,
                         const std::vector<EdgeId>& sub_edges, uint32_t k) {
  std::vector<bool> member(g.EdgeCapacity(), false);
  for (EdgeId e : sub_edges) {
    if (!g.IsEdgeAlive(e)) return false;
    member[e] = true;
  }
  for (EdgeId e : sub_edges) {
    uint32_t inside = 0;
    ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
      if (member[e1] && member[e2]) ++inside;
    });
    if (inside < k) return false;
  }
  return true;
}

bool VerifyTheorem1(const CsrGraph& g, const std::vector<uint32_t>& kappa) {
  bool ok = true;
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    uint32_t supported = 0;
    ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
      if (kappa[e1] >= kappa[e] && kappa[e2] >= kappa[e]) ++supported;
    });
    if (supported < kappa[e]) ok = false;
  });
  return ok;
}

std::vector<CoreTriangle> CoreTrianglesOf(const CsrGraph& g,
                                          const TriangleCoreResult& result,
                                          EdgeId e) {
  struct Entry {
    uint32_t process_time;
    CoreTriangle triangle;
  };
  std::vector<Entry> entries;
  ForEachTriangleOnEdge(g, e, [&](VertexId w, EdgeId e1, EdgeId e2) {
    uint32_t time = std::min({result.order[e], result.order[e1],
                              result.order[e2]});
    entries.push_back({time, {w, e1, e2}});
  });
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.process_time < b.process_time;
            });
  const uint32_t k = result.kappa[e];
  TKC_CHECK(entries.size() >= k);
  std::vector<CoreTriangle> core;
  core.reserve(k);
  for (size_t i = entries.size() - k; i < entries.size(); ++i) {
    core.push_back(entries[i].triangle);
  }
  return core;
}

bool IsClique(const CsrGraph& g, const std::vector<VertexId>& vertices) {
  for (size_t i = 0; i < vertices.size(); ++i) {
    for (size_t j = i + 1; j < vertices.size(); ++j) {
      if (!g.HasEdge(vertices[i], vertices[j])) return false;
    }
  }
  return true;
}

}  // namespace tkc
