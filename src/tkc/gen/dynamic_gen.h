#ifndef TKC_GEN_DYNAMIC_GEN_H_
#define TKC_GEN_DYNAMIC_GEN_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"
#include "tkc/util/random.h"

namespace tkc {

/// Draws a churn workload against `g` matching the paper's Table III setup:
/// `num_removals` random existing edges to delete and `num_insertions`
/// random currently-absent pairs to insert. Events are interleaved randomly.
/// The returned events are valid when applied in order to a copy of `g`.
std::vector<EdgeEvent> RandomChurn(const Graph& g, size_t num_removals,
                                   size_t num_insertions, Rng& rng);

/// Draws `count` events of triadic-closure churn against `g`: each event
/// removes a uniformly chosen live edge with probability 1/2, and otherwise
/// inserts a wedge-closing edge (pick a live edge u–w, then a neighbor v of
/// w, and add u–v; up to 64 tries). Unlike RandomChurn's uniform inserts,
/// nearly every insert closes a triangle, so it exercises promotion and
/// demotion alike. Stops early if the graph runs out of edges. The events
/// are valid when applied in order to a copy of `g`.
std::vector<EdgeEvent> WedgeClosingChurn(const Graph& g, size_t count,
                                         Rng& rng);

/// Applies `events` in order; returns the mutated copy.
Graph ApplyEvents(Graph g, const std::vector<EdgeEvent>& events);

/// A pair of graph snapshots plus the edge delta between them, as used by
/// the dual-view and template-pattern studies. `old_graph` evolves into
/// `new_graph` by inserting `added` (and no deletions); added vertices are
/// ids >= old_graph.NumVertices().
struct SnapshotPair {
  Graph old_graph;
  Graph new_graph;
  std::vector<EdgeEvent> added;
};

/// Evolves `base` into a second snapshot by (a) densifying `num_grow`
/// existing near-cliques with new edges among vertices at triangle distance
/// <= 2, and (b) attaching `num_newcomers` brand-new vertices to random
/// triangles. This mimics the Wiki/DBLP growth patterns behind Figures
/// 8-11: existing communities expand and new actors join dense groups.
SnapshotPair GrowSnapshot(const Graph& base, size_t num_grow,
                          size_t num_newcomers, Rng& rng);

}  // namespace tkc

#endif  // TKC_GEN_DYNAMIC_GEN_H_
