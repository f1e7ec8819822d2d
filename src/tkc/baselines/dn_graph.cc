#include "tkc/baselines/dn_graph.h"

#include <algorithm>
#include <atomic>

#include "tkc/core/analysis_context.h"
#include "tkc/core/core_extraction.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"

namespace tkc {

namespace {

// Largest k <= cap such that at least k of e's triangles have partner-min
// >= k (the Definition 5 support test applied at every level at once).
uint32_t SupportedLevel(const CsrGraph& g, const std::vector<uint32_t>& lambda,
                        EdgeId e, uint32_t cap) {
  if (cap == 0) return 0;
  std::vector<uint32_t> hist(cap + 1, 0);
  ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
    uint32_t m = std::min(lambda[e1], lambda[e2]);
    ++hist[std::min(m, cap)];
  });
  uint32_t cum = 0;
  for (uint32_t k = cap; k > 0; --k) {
    cum += hist[k];
    if (cum >= k) return k;
  }
  return 0;
}

// Each synchronous pass reads only the previous iteration's λ̃ values, so
// refine calls are independent and the live-edge sweep can be statically
// partitioned across workers without changing any result.
template <typename Refine>
DnGraphResult IterateToFixpoint(const CsrGraph& g, const char* span_name,
                                uint32_t max_iterations,
                                std::vector<uint32_t> initial_lambda,
                                int threads, Refine&& refine) {
  TKC_SPAN(span_name);
  DnGraphResult result;
  result.lambda = std::move(initial_lambda);
  const std::vector<EdgeId> live = g.EdgeIds();
  threads = ResolveThreads(threads);
  for (;;) {
    if (max_iterations != 0 && result.iterations >= max_iterations) break;
    ++result.iterations;
    // Synchronous pass: all updates read the previous iteration's values.
    TKC_SPAN("pass");
    std::vector<uint32_t> next = result.lambda;
    result.edge_updates += live.size();
    std::atomic<bool> changed{false};
    ParallelFor(threads, live.size(),
                [&](int, size_t begin, size_t end) {
                  bool local_changed = false;
                  for (size_t i = begin; i < end; ++i) {
                    EdgeId e = live[i];
                    uint32_t updated = refine(result.lambda, e);
                    if (updated != result.lambda[e]) {
                      next[e] = updated;
                      local_changed = true;
                    }
                  }
                  if (local_changed) {
                    changed.store(true, std::memory_order_relaxed);
                  }
                });
    result.lambda.swap(next);
    if (!changed.load(std::memory_order_relaxed)) break;
  }
  TKC_SPAN_COUNTER("iterations", result.iterations);
  TKC_SPAN_COUNTER("edge_updates", result.edge_updates);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("baseline.dn.iterations").Add(result.iterations);
  registry.GetCounter("baseline.dn.edge_updates").Add(result.edge_updates);
  return result;
}

}  // namespace

DnGraphResult TriDn(const AnalysisContext& ctx, uint32_t max_iterations) {
  const CsrGraph& g = ctx.csr();
  return IterateToFixpoint(
      g, "baseline.tridn", max_iterations, ctx.Supports(), ctx.threads(),
      [&g](const std::vector<uint32_t>& lambda, EdgeId e) -> uint32_t {
        uint32_t current = lambda[e];
        if (current == 0) return 0;
        // Count supporters of the current estimate; step down by one when
        // unsupported (the original TriDN unit-decrement rule).
        uint32_t supporters = 0;
        ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
          if (std::min(lambda[e1], lambda[e2]) >= current) ++supporters;
        });
        return supporters >= current ? current : current - 1;
      });
}

DnGraphResult BiTriDn(const AnalysisContext& ctx, uint32_t max_iterations) {
  const CsrGraph& g = ctx.csr();
  return IterateToFixpoint(
      g, "baseline.bitridn", max_iterations, ctx.Supports(), ctx.threads(),
      [&g](const std::vector<uint32_t>& lambda, EdgeId e) -> uint32_t {
        return SupportedLevel(g, lambda, e, lambda[e]);
      });
}

namespace {

// Requirement (1) of the DN-Graph definition restricted to `members`:
// every connected pair inside shares >= lambda neighbors inside.
bool SatisfiesDensity(const CsrGraph& g, const std::vector<bool>& inside,
                      const std::vector<VertexId>& members,
                      uint32_t lambda) {
  for (VertexId u : members) {
    for (const Neighbor& nb : g.Neighbors(u)) {
      VertexId v = nb.vertex;
      if (v < u || !inside[v]) continue;
      uint32_t common_inside = 0;
      g.ForEachCommonNeighbor(u, v, [&](VertexId w, EdgeId, EdgeId) {
        common_inside += inside[w];
      });
      if (common_inside < lambda) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<DnGraphCandidate> ExtractDnGraphs(
    const CsrGraph& g, const std::vector<uint32_t>& lambda,
    uint32_t min_lambda) {
  std::vector<DnGraphCandidate> candidates;
  std::vector<bool> inside(g.NumVertices(), false);
  // A candidate per triangle-connected component at its peak level: take
  // the components whose member edges' λ equals the level (higher levels
  // re-emit the denser interiors as their own candidates).
  uint32_t max_lambda = 0;
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    max_lambda = std::max(max_lambda, lambda[e]);
  });
  for (uint32_t k = std::max(min_lambda, 1u); k <= max_lambda; ++k) {
    for (CoreSubgraph& core : TriangleConnectedCores(g, lambda, k)) {
      // Peak test: some member edge has λ exactly k (otherwise the same
      // component reappears identically at k+1).
      bool peak = false;
      for (EdgeId e : core.edges) peak = peak || lambda[e] == k;
      if (!peak) continue;
      DnGraphCandidate cand;
      cand.lambda = k;
      cand.vertices = std::move(core.vertices);
      cand.edges = std::move(core.edges);

      // Requirement (2): adding any neighboring outside vertex must break
      // the λ-density; removing an inside vertex must not be required.
      for (VertexId v : cand.vertices) inside[v] = true;
      bool maximal = SatisfiesDensity(g, inside, cand.vertices, k);
      if (maximal) {
        // Try growing by one outside neighbor.
        std::vector<VertexId> frontier;
        for (VertexId v : cand.vertices) {
          for (const Neighbor& nb : g.Neighbors(v)) {
            if (!inside[nb.vertex]) frontier.push_back(nb.vertex);
          }
        }
        std::sort(frontier.begin(), frontier.end());
        frontier.erase(std::unique(frontier.begin(), frontier.end()),
                       frontier.end());
        for (VertexId w : frontier) {
          inside[w] = true;
          std::vector<VertexId> grown = cand.vertices;
          grown.push_back(w);
          if (SatisfiesDensity(g, inside, grown, k)) {
            maximal = false;  // w joins without hurting λ
          }
          inside[w] = false;
          if (!maximal) break;
        }
      }
      cand.locally_maximal = maximal;
      for (VertexId v : cand.vertices) inside[v] = false;
      candidates.push_back(std::move(cand));
    }
  }
  return candidates;
}

std::vector<bool> DnGraphCoverage(const CsrGraph& g,
                                  const std::vector<uint32_t>& lambda,
                                  uint32_t min_lambda) {
  std::vector<bool> covered(g.NumVertices(), false);
  for (const DnGraphCandidate& cand : ExtractDnGraphs(g, lambda, min_lambda)) {
    for (VertexId v : cand.vertices) covered[v] = true;
  }
  return covered;
}

}  // namespace tkc
