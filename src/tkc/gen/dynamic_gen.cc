#include "tkc/gen/dynamic_gen.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "tkc/graph/triangle.h"
#include "tkc/util/check.h"

namespace tkc {

std::vector<EdgeEvent> RandomChurn(const Graph& g, size_t num_removals,
                                   size_t num_insertions, Rng& rng) {
  TKC_CHECK(num_removals <= g.NumEdges());
  std::vector<EdgeEvent> events;
  events.reserve(num_removals + num_insertions);

  // Removals: sample distinct live edges.
  std::vector<EdgeId> live = g.EdgeIds();
  std::vector<uint64_t> picks = rng.SampleDistinct(live.size(), num_removals);
  for (uint64_t p : picks) {
    Edge e = g.GetEdge(live[p]);
    events.push_back({EdgeEvent::Kind::kRemove, e.u, e.v});
  }

  // Insertions: rejection-sample absent pairs (also absent from earlier
  // sampled insertions).
  Graph shadow = g;
  const VertexId n = g.NumVertices();
  TKC_CHECK(n >= 2 || num_insertions == 0);
  size_t made = 0;
  while (made < num_insertions) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v || shadow.HasEdge(u, v)) continue;
    shadow.AddEdge(u, v);
    events.push_back({EdgeEvent::Kind::kInsert, u, v});
    ++made;
  }
  rng.Shuffle(events);

  // Interleaving removals and insertions randomly can produce an insert of
  // a pair scheduled for removal later, or vice versa; both orders stay
  // valid because removals were drawn from g's live edges and insertions
  // from pairs absent in g — the only conflict would be insert-then-remove
  // or remove-then-insert of the *same* pair, which the disjoint sampling
  // above rules out.
  return events;
}

std::vector<EdgeEvent> WedgeClosingChurn(const Graph& g, size_t count,
                                         Rng& rng) {
  Graph shadow = g;
  auto key = [](VertexId u, VertexId v) {
    return (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
  };
  // Live edges in a vector for uniform picks; `slot` finds an edge's
  // position so a removal can swap the last one into its place.
  std::vector<Edge> live;
  std::unordered_map<uint64_t, size_t> slot;
  shadow.ForEachEdge([&](EdgeId, const Edge& e) {
    slot[key(e.u, e.v)] = live.size();
    live.push_back(e);
  });
  std::vector<EdgeEvent> events;
  events.reserve(count);
  while (events.size() < count && !live.empty()) {
    if (rng.NextBool(0.5)) {
      const size_t i = static_cast<size_t>(rng.NextBounded(live.size()));
      const Edge e = live[i];
      slot[key(live.back().u, live.back().v)] = i;
      live[i] = live.back();
      live.pop_back();
      slot.erase(key(e.u, e.v));
      shadow.RemoveEdge(e.u, e.v);
      events.push_back({EdgeEvent::Kind::kRemove, e.u, e.v});
      continue;
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      const Edge e = live[rng.NextBounded(live.size())];
      VertexId u = e.u;
      VertexId w = e.v;
      if (rng.NextBool(0.5)) std::swap(u, w);
      const auto& around = shadow.Neighbors(w);
      const VertexId v = around[rng.NextBounded(around.size())].vertex;
      if (v == u || shadow.HasEdge(u, v)) continue;
      shadow.AddEdge(u, v);
      const Edge added{std::min(u, v), std::max(u, v)};
      slot[key(added.u, added.v)] = live.size();
      live.push_back(added);
      events.push_back({EdgeEvent::Kind::kInsert, added.u, added.v});
      break;
    }
  }
  return events;
}

Graph ApplyEvents(Graph g, const std::vector<EdgeEvent>& events) {
  for (const EdgeEvent& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      g.AddEdge(ev.u, ev.v);
    } else {
      g.RemoveEdge(ev.u, ev.v);
    }
  }
  return g;
}

SnapshotPair GrowSnapshot(const Graph& base, size_t num_grow,
                          size_t num_newcomers, Rng& rng) {
  SnapshotPair pair;
  pair.old_graph = base;
  pair.new_graph = base;

  auto add = [&](VertexId u, VertexId v) {
    bool inserted = false;
    pair.new_graph.AddEdge(u, v, &inserted);
    if (inserted) {
      pair.added.push_back({EdgeEvent::Kind::kInsert, u, v});
    }
  };

  // (a) Densify around random triangles: connect each triangle vertex to a
  // random neighbor-of-neighbor, pulling near-cliques toward cliques.
  std::vector<Triangle> triangles;
  ForEachTriangle(base, [&](const Triangle& t) { triangles.push_back(t); });
  for (size_t i = 0; i < num_grow && !triangles.empty(); ++i) {
    const Triangle& t = triangles[rng.NextBounded(triangles.size())];
    VertexId corners[3] = {t.a, t.b, t.c};
    VertexId x = corners[rng.NextBounded(3)];
    // Pick a vertex two hops from x through the triangle.
    VertexId mid = corners[rng.NextBounded(3)];
    const auto& nbs = base.Neighbors(mid);
    if (nbs.empty()) continue;
    VertexId far = nbs[rng.NextBounded(nbs.size())].vertex;
    if (far != x) add(x, far);
  }

  // (b) Newcomers attach to every vertex of a random triangle plus a few of
  // its neighbors — the "new author joins an existing group" pattern.
  for (size_t i = 0; i < num_newcomers && !triangles.empty(); ++i) {
    VertexId newcomer = pair.new_graph.AddVertex();
    const Triangle& t = triangles[rng.NextBounded(triangles.size())];
    add(newcomer, t.a);
    add(newcomer, t.b);
    add(newcomer, t.c);
  }
  return pair;
}

}  // namespace tkc
