#include "tkc/patterns/template_clique.h"

#include <algorithm>

#include "tkc/util/check.h"

namespace tkc {

TemplateDetectionResult DetectTemplateCliques(const LabeledGraph& lg,
                                              const TemplateSpec& spec) {
  const Graph& g = lg.graph;
  TKC_CHECK(lg.edge_origin.size() >= g.EdgeCapacity());
  TKC_CHECK(lg.vertex_origin.size() >= g.NumVertices());

  TemplateDetectionResult result;
  result.co_clique_size.assign(g.EdgeCapacity(), 0);
  result.kappa_special.assign(g.EdgeCapacity(), 0);

  std::vector<uint8_t> edge_special(g.EdgeCapacity(), 0);
  std::vector<uint8_t> vertex_special(g.NumVertices(), 0);

  // Steps 1-3: characteristic triangles; their edges and vertices become
  // special.
  ForEachTriangle(g, [&](const Triangle& t) {
    if (spec.characteristic && spec.characteristic(lg, t)) {
      ++result.characteristic_triangles;
      edge_special[t.ab] = edge_special[t.ac] = edge_special[t.bc] = 1;
      vertex_special[t.a] = vertex_special[t.b] = vertex_special[t.c] = 1;
    }
  });

  // Steps 4-6: possible triangles, restricted to already-special vertices,
  // contribute their edges.
  if (spec.possible) {
    ForEachTriangle(g, [&](const Triangle& t) {
      if (!vertex_special[t.a] || !vertex_special[t.b] ||
          !vertex_special[t.c]) {
        return;
      }
      if (spec.possible(lg, t)) {
        ++result.possible_triangles;
        edge_special[t.ab] = edge_special[t.ac] = edge_special[t.bc] = 1;
      }
    });
  }

  // Step 7: G_spe — same vertex ids, special edges only, with a mapping
  // from G_spe edge ids back to NG edge ids.
  Graph spe(g.NumVertices());
  std::vector<EdgeId> spe_to_orig;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!edge_special[e]) return;
    EdgeId se = spe.AddEdge(edge.u, edge.v);
    if (se >= spe_to_orig.size()) spe_to_orig.resize(se + 1, kInvalidEdge);
    spe_to_orig[se] = e;
    result.special_edges.push_back(e);
  });
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (vertex_special[v]) result.special_vertices.push_back(v);
  }

  // Step 8: Algorithm 1 on G_spe.
  TriangleCoreResult cores = ComputeTriangleCores(CsrGraph(spe));

  // Steps 9-13: map κ back; non-special edges stay at 0.
  spe.ForEachEdge([&](EdgeId se, const Edge&) {
    EdgeId orig = spe_to_orig[se];
    result.kappa_special[orig] = cores.kappa[se];
    result.co_clique_size[orig] = cores.kappa[se] + 2;
  });
  return result;
}

}  // namespace tkc
