// dynamic_monitoring: watch an evolving network and raise events when its
// clique structure changes — the Section V "event detection" application.
// A stream of snapshots flows through the incremental maintainer
// (Algorithm 2); each transition is screened for New Form / Bridge /
// New Join cliques and dense-core drift.
//
// Usage: dynamic_monitoring [num_steps] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "tkc/core/dynamic_core.h"
#include "tkc/gen/dynamic_gen.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/patterns/events.h"
#include "tkc/util/random.h"
#include "tkc/util/timer.h"

using namespace tkc;

int main(int argc, char** argv) {
  int steps = argc > 1 ? std::atoi(argv[1]) : 6;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  Rng rng(seed);

  Graph current = PowerLawCluster(1200, 3, 0.5, rng);
  std::printf("monitoring network: %u vertices, %zu edges\n\n",
              current.NumVertices(), current.NumEdges());

  // `current` mirrors the maintainer's view as the Graph that the snapshot
  // generator and the event screen read.
  DynamicTriangleCore dyn{DeltaCsr(current)};
  for (int step = 1; step <= steps; ++step) {
    // Evolve: organic growth plus, on some steps, a planted incident.
    SnapshotPair pair = GrowSnapshot(current, 40, 2, rng);
    if (step % 3 == 0) {
      // Incident: a brand-new collaboration ring between old strangers.
      std::vector<VertexId> ring;
      while (ring.size() < 5) {
        VertexId v = static_cast<VertexId>(
            rng.NextBounded(current.NumVertices()));
        bool fresh = true;
        for (VertexId r : ring) fresh = fresh && !current.HasEdge(r, v);
        if (fresh && std::find(ring.begin(), ring.end(), v) == ring.end()) {
          ring.push_back(v);
        }
      }
      for (size_t i = 0; i < ring.size(); ++i) {
        for (size_t j = i + 1; j < ring.size(); ++j) {
          bool inserted = false;
          pair.new_graph.AddEdge(ring[i], ring[j], &inserted);
          if (inserted) {
            pair.added.push_back(
                {EdgeEvent::Kind::kInsert, ring[i], ring[j]});
          }
        }
      }
    }

    // Feed the delta through the incremental maintainer.
    Timer t;
    for (const EdgeEvent& ev : pair.added) dyn.InsertEdge(ev.u, ev.v);
    double update_s = t.Seconds();

    // Screen the transition for structural events.
    t.Restart();
    EventDetectorOptions opt;
    opt.min_clique_size = 5;
    std::vector<CliqueEvent> events =
        DetectEvents(current, pair.new_graph, opt);
    double detect_s = t.Seconds();
    current = std::move(pair.new_graph);

    std::printf("step %d: +%zu edges (update %.4fs, screen %.3fs)\n", step,
                pair.added.size(), update_s, detect_s);
    if (events.empty()) {
      std::printf("         no structural events\n");
    }
    for (const CliqueEvent& ev : events) {
      std::printf("         ALERT %s clique, size %u, members:",
                  ToString(ev.type).c_str(), ev.clique_size);
      for (size_t i = 0; i < ev.vertices.size() && i < 8; ++i) {
        std::printf(" %u", ev.vertices[i]);
      }
      if (ev.vertices.size() > 8) std::printf(" ...");
      std::printf("\n");
    }
  }
  std::printf("\nfinal network: %u vertices, %zu edges; lifetime update "
              "work: %llu edges touched\n",
              dyn.graph().NumVertices(), dyn.graph().NumEdges(),
              static_cast<unsigned long long>(
                  dyn.total_stats().candidate_edges));
  return 0;
}
