#include "tkc/patterns/patterns.h"

#include "tkc/graph/connectivity.h"
#include "tkc/util/check.h"

namespace tkc {

namespace {

// Shared label plumbing: NG plus a predicate deciding which edges are new.
template <typename IsNewEdgeFn>
LabeledGraph LabelCommon(const Graph& old_graph, const Graph& new_graph,
                         IsNewEdgeFn&& is_new_edge) {
  LabeledGraph lg;
  lg.graph = new_graph;
  lg.edge_origin.assign(new_graph.EdgeCapacity(), Origin::kOriginal);
  new_graph.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (is_new_edge(edge)) lg.edge_origin[e] = Origin::kNew;
  });
  lg.vertex_origin.assign(new_graph.NumVertices(), Origin::kNew);
  for (VertexId v = 0;
       v < std::min(old_graph.NumVertices(), new_graph.NumVertices()); ++v) {
    lg.vertex_origin[v] = Origin::kOriginal;
  }
  ComponentResult comps = ConnectedComponents(CsrGraph(old_graph));
  lg.old_component.assign(new_graph.NumVertices(), kInvalidVertex);
  for (VertexId v = 0; v < old_graph.NumVertices(); ++v) {
    lg.old_component[v] = comps.component_of[v];
  }
  return lg;
}

// Triangle edge/vertex accessors by corner index keep the predicates terse.
struct TriangleView {
  const Triangle& t;
  EdgeId edge(int i) const { return i == 0 ? t.ab : (i == 1 ? t.ac : t.bc); }
  VertexId vertex(int i) const {
    return i == 0 ? t.a : (i == 1 ? t.b : t.c);
  }
  // Vertex opposite edge i: edge 0 = ab -> c, edge 1 = ac -> b, 2 = bc -> a.
  VertexId apex(int i) const { return i == 0 ? t.c : (i == 1 ? t.b : t.a); }
};

}  // namespace

LabeledGraph LabelFromSnapshots(const SnapshotPair& pair) {
  return LabelFromGraphs(pair.old_graph, pair.new_graph);
}

LabeledGraph LabelFromGraphs(const Graph& old_graph, const Graph& new_graph) {
  return LabelCommon(old_graph, new_graph, [&](const Edge& edge) {
    return !old_graph.HasEdge(edge.u, edge.v);
  });
}

LabeledGraph LabelFromAttributes(const Graph& g,
                                 const std::vector<uint32_t>& attribute_of) {
  TKC_CHECK(attribute_of.size() >= g.NumVertices());
  LabeledGraph lg;
  lg.graph = g;
  lg.edge_origin.assign(g.EdgeCapacity(), Origin::kOriginal);
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (attribute_of[edge.u] != attribute_of[edge.v]) {
      lg.edge_origin[e] = Origin::kNew;  // inter-attribute = "new"
    }
  });
  // All vertices are original; each attribute acts as its own OG component
  // (the intra-attribute subgraphs are the "disconnected cliques").
  lg.vertex_origin.assign(g.NumVertices(), Origin::kOriginal);
  lg.old_component.assign(attribute_of.begin(),
                          attribute_of.begin() + g.NumVertices());
  return lg;
}

TemplateSpec NewFormSpec() {
  TemplateSpec spec;
  spec.name = "NewForm";
  spec.characteristic = [](const LabeledGraph& lg, const Triangle& t) {
    return lg.IsNewEdge(t.ab) && lg.IsNewEdge(t.ac) && lg.IsNewEdge(t.bc) &&
           !lg.IsNewVertex(t.a) && !lg.IsNewVertex(t.b) &&
           !lg.IsNewVertex(t.c);
  };
  spec.possible = nullptr;  // Figure 4(d): no other triangle shape occurs
  return spec;
}

TemplateSpec BridgeSpec() {
  TemplateSpec spec;
  spec.name = "Bridge";
  spec.characteristic = [](const LabeledGraph& lg, const Triangle& t) {
    if (lg.IsNewVertex(t.a) || lg.IsNewVertex(t.b) || lg.IsNewVertex(t.c)) {
      return false;
    }
    TriangleView view{t};
    int original_edges = 0;
    int original_idx = -1;
    for (int i = 0; i < 3; ++i) {
      if (!lg.IsNewEdge(view.edge(i))) {
        ++original_edges;
        original_idx = i;
      }
    }
    if (original_edges != 1) return false;
    // The apex must come from a different OG component than the original
    // edge's endpoints — the two sides being bridged.
    Edge orig = lg.graph.GetEdge(view.edge(original_idx));
    VertexId apex = view.apex(original_idx);
    return lg.old_component[apex] != lg.old_component[orig.u];
  };
  spec.possible = [](const LabeledGraph& lg, const Triangle& t) {
    // Figure 4(b)'s ΔBCD: triangles wholly inside one original side.
    return !lg.IsNewEdge(t.ab) && !lg.IsNewEdge(t.ac) && !lg.IsNewEdge(t.bc);
  };
  return spec;
}

TemplateSpec NewJoinSpec() {
  TemplateSpec spec;
  spec.name = "NewJoin";
  spec.characteristic = [](const LabeledGraph& lg, const Triangle& t) {
    TriangleView view{t};
    int new_vertices = 0;
    int new_vertex_corner = -1;
    for (int i = 0; i < 3; ++i) {
      if (lg.IsNewVertex(view.vertex(i))) {
        ++new_vertices;
        new_vertex_corner = i;
      }
    }
    if (new_vertices != 1) return false;
    // The edge opposite the new vertex must be original (the OG 2-clique);
    // the two edges touching the new vertex are necessarily new.
    // corner 0 = a -> opposite edge bc, corner 1 = b -> ac, corner 2 = c ->
    // ab.
    EdgeId opposite = new_vertex_corner == 0
                          ? t.bc
                          : (new_vertex_corner == 1 ? t.ac : t.ab);
    return !lg.IsNewEdge(opposite);
  };
  spec.possible = [](const LabeledGraph& lg, const Triangle& t) {
    bool all_new = lg.IsNewEdge(t.ab) && lg.IsNewEdge(t.ac) &&
                   lg.IsNewEdge(t.bc);
    bool all_original = !lg.IsNewEdge(t.ab) && !lg.IsNewEdge(t.ac) &&
                        !lg.IsNewEdge(t.bc);
    return all_new || all_original;
  };
  return spec;
}

}  // namespace tkc
