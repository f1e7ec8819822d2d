#ifndef TKC_CORE_CORE_EXTRACTION_H_
#define TKC_CORE_CORE_EXTRACTION_H_

#include <cstdint>
#include <vector>

#include "tkc/core/triangle_core.h"
#include "tkc/graph/csr.h"

namespace tkc {

/// A Triangle K-Core subgraph: the edge set, the induced vertex set, and
/// the core number k it was extracted at.
struct CoreSubgraph {
  uint32_t k = 0;
  std::vector<EdgeId> edges;       // increasing EdgeId order
  std::vector<VertexId> vertices;  // increasing VertexId order, deduplicated
};

/// Edges of the *maximal* Triangle K-Core with number >= k: exactly the
/// edges with κ(e) >= k (Claim 2's subgraph G_k). May be triangle- and even
/// vertex-disconnected. Every function in this header reads a frozen
/// CsrGraph; a caller holding a Graph freezes it once (`CsrGraph csr(g)`),
/// which keeps its EdgeIds, so κ arrays index either.
CoreSubgraph TriangleKCore(const CsrGraph& g,
                           const std::vector<uint32_t>& kappa, uint32_t k);

/// Definition 4: the maximum Triangle K-Core associated with edge `e`,
/// materialized as the *triangle-connected* component of `e` inside the
/// subgraph of edges with κ >= κ(e). Two edges are triangle-connected when
/// a chain of triangles (each fully inside the subgraph) links them; this is
/// the "community" the paper draws in its case studies.
CoreSubgraph MaxTriangleCoreOf(const CsrGraph& g,
                               const std::vector<uint32_t>& kappa, EdgeId e);

/// All triangle-connected components of the κ >= k subgraph, each reported
/// as its own CoreSubgraph. Components with no triangle (isolated edges of
/// the subgraph) are skipped for k >= 1.
std::vector<CoreSubgraph> TriangleConnectedCores(
    const CsrGraph& g, const std::vector<uint32_t>& kappa, uint32_t k);

/// Checks Definition 3: every edge of `sub` participates in at least `k`
/// triangles formed entirely by edges of `sub`. Used by tests and by the
/// benchmark harnesses to certify extracted cores.
bool VerifyTriangleKCore(const CsrGraph& g,
                         const std::vector<EdgeId>& sub_edges, uint32_t k);

/// Checks the Theorem 1 consequence globally: every live edge `e` has at
/// least κ(e) triangles whose two partner edges both have κ >= κ(e) — i.e.,
/// e's maximum Triangle K-Core is realizable from triangles that respect
/// Theorem 1. (The decomposition is the maximum such assignment; see tests.)
bool VerifyTheorem1(const CsrGraph& g, const std::vector<uint32_t>& kappa);

/// True iff `vertices` form a clique in `g`.
bool IsClique(const CsrGraph& g, const std::vector<VertexId>& vertices);

/// Appendix Rule 1: without storing per-edge triangle sets, the κ(e)
/// triangles of e's maximum Triangle K-Core can be recovered from the
/// processing order — sort e's triangles by "process time" (the smallest
/// `order` among their edges); the last κ(e) of them are in the core.
/// Returns exactly κ(e) triangles as (apex, e1, e2) tuples.
struct CoreTriangle {
  VertexId apex;
  EdgeId e1, e2;
};
std::vector<CoreTriangle> CoreTrianglesOf(const CsrGraph& g,
                                          const TriangleCoreResult& result,
                                          EdgeId e);

}  // namespace tkc

#endif  // TKC_CORE_CORE_EXTRACTION_H_
