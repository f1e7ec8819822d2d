// stream_replay: load a snapshot-stream file, replay it through the
// incremental maintainer, and report per-snapshot structure plus the
// dual-view change summary between consecutive snapshots. Demonstrates the
// on-disk dynamic-graph workflow end to end (io -> core -> viz).
//
// Usage: stream_replay [stream-file]
// Default input is the paper's Figure 3 example shipped in data/.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "tkc/core/dynamic_core.h"
#include "tkc/gen/dynamic_gen.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/io/snapshots.h"
#include "tkc/viz/dual_view.h"

using namespace tkc;

namespace {

std::optional<SnapshotStream> LoadWithFallback(const std::string& arg) {
  for (const std::string& path :
       {arg, "data/" + arg, "../data/" + arg, "../../data/" + arg}) {
    auto stream = ReadSnapshotStreamFile(path);
    if (stream.has_value()) {
      std::printf("loaded %s\n", path.c_str());
      return stream;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file = argc > 1 ? argv[1] : "figure3_stream.txt";
  auto stream = LoadWithFallback(file);
  if (!stream.has_value()) {
    std::fprintf(stderr, "cannot load snapshot stream '%s'\n", file.c_str());
    return 2;
  }
  std::printf("snapshots: %zu, base edges: %zu\n\n", stream->NumSnapshots(),
              stream->base.NumEdges());

  DynamicTriangleCore dyn{DeltaCsr(stream->base)};
  // The previous snapshot as a Graph, for the dual view.
  Graph before = stream->base;
  for (size_t step = 0; step < stream->deltas.size(); ++step) {
    const auto& delta = stream->deltas[step];
    const UpdateStats stats = dyn.ApplyBatch(delta).work;
    std::printf("snapshot %zu -> %zu: %zu events, touched %llu edges, "
                "promoted %llu, demoted %llu\n",
                step, step + 1, delta.size(),
                static_cast<unsigned long long>(stats.candidate_edges),
                static_cast<unsigned long long>(stats.promoted_edges),
                static_cast<unsigned long long>(stats.demoted_edges));

    // Dual-view over the insertions of this delta (Algorithm 3 works on
    // additions; deletions are reported through the stats above).
    std::vector<EdgeEvent> additions;
    std::copy_if(delta.begin(), delta.end(), std::back_inserter(additions),
                 [](const EdgeEvent& ev) {
                   return ev.kind == EdgeEvent::Kind::kInsert;
                 });
    if (!additions.empty()) {
      DualViewResult dual = BuildDualView(before, additions);
      std::printf("  plot(b) shows %zu touched vertices, peak "
                  "co_clique_size %u\n",
                  dual.after.points.size(), dual.after.MaxValue());
    }
    before = ApplyEvents(std::move(before), delta);
    // Print the κ values over the live graph (small streams only).
    if (dyn.graph().NumEdges() <= 32) {
      dyn.graph().ForEachEdge([&](EdgeId e, const Edge& edge) {
        std::printf("    kappa(%u,%u) = %u\n", edge.u, edge.v,
                    dyn.KappaOf(e));
      });
    }
  }
  return 0;
}
