#include "tkc/verify/certificate.h"

#include <algorithm>
#include <string>

#include "tkc/graph/triangle.h"

namespace tkc::verify {

namespace {

// Triangles on `e` whose two partner edges both satisfy `keep`.
template <typename GraphT, typename Pred>
uint32_t QualifiedSupport(const GraphT& g, EdgeId e, Pred&& keep) {
  uint32_t n = 0;
  ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
    if (keep(e1) && keep(e2)) ++n;
  });
  return n;
}

// Naive maximal triangle k-core by iterative deletion: start from every
// live edge, recount each survivor's in-set support, delete those below
// `k`, cascade until stable. Returns the surviving-edge mask (by EdgeId).
template <typename GraphT>
std::vector<uint8_t> NaiveMaximalCore(const GraphT& g,
                                      const std::vector<EdgeId>& live,
                                      uint32_t k) {
  std::vector<uint8_t> alive(g.EdgeCapacity(), 0);
  for (EdgeId e : live) alive[e] = 1;
  std::vector<uint32_t> in_support(g.EdgeCapacity(), 0);
  std::vector<EdgeId> doomed;
  for (EdgeId e : live) {
    in_support[e] =
        QualifiedSupport(g, e, [&](EdgeId f) { return alive[f] != 0; });
    if (in_support[e] < k) doomed.push_back(e);
  }
  while (!doomed.empty()) {
    EdgeId e = doomed.back();
    doomed.pop_back();
    if (alive[e] == 0) continue;
    alive[e] = 0;
    // Each destroyed triangle lowers both partners' in-set support.
    ForEachTriangleOnEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
      if (alive[e1] == 0 || alive[e2] == 0) return;
      for (EdgeId f : {e1, e2}) {
        if (--in_support[f] < k && alive[f] != 0) doomed.push_back(f);
      }
    });
  }
  return alive;
}

template <typename GraphT>
VerifyReport CheckKappaCertificateImpl(const GraphT& g,
                                       const std::vector<uint32_t>& kappa) {
  VerifyReport report;
  const std::string scope = "edges=" + std::to_string(g.NumEdges());

  // kappa.shape: coverage and clean tombstones.
  if (kappa.size() < g.EdgeCapacity()) {
    report.Add(Fail("kappa.shape", scope,
                    {kInvalidEdge, kInvalidVertex, kInvalidVertex, 0,
                     kappa.size(), g.EdgeCapacity(),
                     "kappa array smaller than EdgeCapacity()"}));
    return report;  // indexing below would be out of bounds
  }
  bool shape_ok = true;
  for (EdgeId e = 0; e < g.EdgeCapacity() && shape_ok; ++e) {
    if (!g.IsEdgeAlive(e) && kappa[e] != 0) {
      report.Add(Fail("kappa.shape", scope,
                      {e, kInvalidVertex, kInvalidVertex, 0, kappa[e], 0,
                       "dead edge id carries a nonzero kappa"}));
      shape_ok = false;
    }
  }
  if (shape_ok) report.Add(Pass("kappa.shape", scope));

  std::vector<EdgeId> live = g.EdgeIds();
  uint32_t max_k = 0;
  for (EdgeId e : live) max_k = std::max(max_k, kappa[e]);
  const std::string levels_scope =
      scope + " levels=1.." + std::to_string(max_k + 1);

  // Soundness: recount each edge's qualified support at its own level.
  bool sound = true;
  for (EdgeId e : live) {
    const uint32_t k = kappa[e];
    if (k == 0) continue;
    uint32_t observed =
        QualifiedSupport(g, e, [&](EdgeId f) { return kappa[f] >= k; });
    if (observed < k) {
      Edge edge = g.GetEdge(e);
      report.Add(Fail(
          "kappa.soundness", levels_scope,
          {e, edge.u, edge.v, k, observed, k,
           "edge claims kappa = level but has fewer qualified triangles"}));
      sound = false;
      break;
    }
  }
  if (sound) report.Add(Pass("kappa.soundness", levels_scope));

  // Maximality: no edge survives the naive k-core with κ < k, at any level.
  bool maximal = true;
  for (uint32_t k = 1; k <= max_k + 1 && maximal; ++k) {
    std::vector<uint8_t> core = NaiveMaximalCore(g, live, k);
    for (EdgeId e : live) {
      if (core[e] != 0 && kappa[e] < k) {
        Edge edge = g.GetEdge(e);
        report.Add(Fail("kappa.maximality", levels_scope,
                        {e, edge.u, edge.v, k, kappa[e], k,
                         "edge survives the naive maximal k-core but "
                         "claims a smaller kappa"}));
        maximal = false;
        break;
      }
    }
  }
  if (maximal) report.Add(Pass("kappa.maximality", levels_scope));

  return report;
}

}  // namespace

VerifyReport CheckKappaCertificate(const CsrGraph& g,
                                   const std::vector<uint32_t>& kappa) {
  return CheckKappaCertificateImpl(g, kappa);
}

VerifyReport CheckKappaCertificate(const DeltaCsr& g,
                                   const std::vector<uint32_t>& kappa) {
  return CheckKappaCertificateImpl(g, kappa);
}

}  // namespace tkc::verify
