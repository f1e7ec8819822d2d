// End-to-end scenarios across module boundaries: generator -> io -> core ->
// dynamic -> viz -> patterns, the same pipelines the benches and the CLI
// drive, validated with assertions rather than eyeballs.

#include <sstream>

#include <gtest/gtest.h>
#include "tkc/baselines/csv.h"
#include "tkc/baselines/dn_graph.h"
#include "tkc/core/core_extraction.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/datasets.h"
#include "tkc/gen/dynamic_gen.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/snapshots.h"
#include "tkc/patterns/events.h"
#include "tkc/util/random.h"
#include "tkc/viz/density_plot.h"
#include "tkc/viz/dual_view.h"

namespace tkc {
namespace {

TEST(IntegrationTest, DiskRoundTripPreservesDecomposition) {
  // generate -> write -> read -> decompose twice: identical κ multisets.
  Rng rng(1);
  Graph g = PowerLawCluster(300, 3, 0.6, rng);
  TriangleCoreResult before = ComputeTriangleCores(g);

  std::stringstream buffer;
  WriteEdgeList(g, buffer);
  auto loaded = ReadEdgeList(buffer);
  ASSERT_TRUE(loaded.has_value());
  TriangleCoreResult after = ComputeTriangleCores(*loaded);

  // Edge ids may differ; compare per-pair κ.
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    EdgeId le = loaded->FindEdge(edge.u, edge.v);
    ASSERT_NE(le, kInvalidEdge);
    EXPECT_EQ(before.kappa[e], after.kappa[le]);
  });
}

TEST(IntegrationTest, FullDynamicPipelineOverSnapshotStream) {
  // Build a 4-snapshot stream, persist it, reload it, replay it through
  // the incremental maintainer, and cross-check against static recompute
  // at every snapshot.
  Rng rng(2);
  SnapshotStream stream;
  stream.base = PowerLawCluster(200, 3, 0.6, rng);
  Graph current = stream.base;
  for (int i = 0; i < 3; ++i) {
    auto events = RandomChurn(current, 8, 12, rng);
    stream.deltas.push_back(events);
    current = ApplyEvents(std::move(current), events);
  }
  std::stringstream buffer;
  WriteSnapshotStream(stream, buffer);
  auto reloaded = ReadSnapshotStream(buffer);
  ASSERT_TRUE(reloaded.has_value());

  DynamicTriangleCore dyn{DeltaCsr(reloaded->base)};
  for (size_t s = 0; s < reloaded->deltas.size(); ++s) {
    dyn.ApplyBatch(reloaded->deltas[s]);
    TriangleCoreResult fresh = ComputeTriangleCores(dyn.graph());
    dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
      ASSERT_EQ(dyn.kappa()[e], fresh.kappa[e]) << "snapshot " << s + 1;
    });
  }
}

TEST(IntegrationTest, PlateauToCoreToHierarchyAgreement) {
  // Find a plateau in the density plot, extract the core under it, and
  // confirm the hierarchy reports the same community at the same level.
  Rng rng(3);
  Graph g = GnmRandom(250, 400, rng);
  auto members = PlantRandomClique(g, 10, rng);
  TriangleCoreResult r = ComputeTriangleCores(g);

  std::vector<uint32_t> co(g.EdgeCapacity(), 0);
  g.ForEachEdge([&](EdgeId e, const Edge&) { co[e] = r.kappa[e] + 2; });
  DensityPlot plot = BuildDensityPlot(g, co);
  auto plateaus = FindPlateaus(plot, 10, 8);
  ASSERT_FALSE(plateaus.empty());

  EdgeId seed = g.FindEdge(members[0], members[1]);
  CoreSubgraph core = MaxTriangleCoreOf(g, r.kappa, seed);
  EXPECT_TRUE(VerifyTriangleKCore(g, core.edges, core.k));
  EXPECT_EQ(core.k, 8u);

  CoreHierarchy h = BuildCoreHierarchy(g, r);
  uint32_t leaf = h.LeafOf(seed);
  ASSERT_NE(leaf, UINT32_MAX);
  EXPECT_EQ(h.nodes[leaf].k, 8u);
  EXPECT_EQ(h.nodes[leaf].subtree_vertices, core.vertices.size());
  EXPECT_EQ(h.nodes[leaf].subtree_edges, core.edges.size());
}

TEST(IntegrationTest, ThreeEstimatorsAgreeOnDatasets) {
  // κ+2, TriDN λ+2, BiTriDN λ+2 are identical; CSV is >= within exact
  // search regions on the same dataset (CSV finds the true max clique,
  // which the Triangle K-Core proxy lower-bounds).
  Dataset ds = MakeDataset("synthetic", 77);
  const Graph& g = ds.graph;
  TriangleCoreResult cores = ComputeTriangleCores(g);
  DnGraphResult tri = TriDn(g);
  DnGraphResult bi = BiTriDn(g);
  CsvResult csv = ComputeCsv(g);
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(cores.kappa[e], tri.lambda[e]);
    EXPECT_EQ(cores.kappa[e], bi.lambda[e]);
    EXPECT_LE(csv.co_clique_size[e], cores.kappa[e] + 2);
  });
}

TEST(IntegrationTest, DualViewPlusEventsTellTheSameStory) {
  // When two cliques merge, the dual view's plot(b) peak and the event
  // detector's bridge event must describe the same vertex set.
  Graph old_g(30);
  PlantClique(old_g, {0, 1, 2, 3});
  PlantClique(old_g, {10, 11, 12});
  std::vector<EdgeEvent> adds;
  for (VertexId a : {0, 1, 2, 3}) {
    for (VertexId b : {10, 11, 12}) {
      adds.push_back({EdgeEvent::Kind::kInsert, a, b});
    }
  }
  DualViewResult dual = BuildDualView(old_g, adds);
  EXPECT_EQ(dual.after.MaxValue(), 7u);

  EventDetectorOptions opt;
  opt.min_clique_size = 6;
  auto events = DetectEvents(old_g, dual.new_graph->ThawPreservingIds(), opt);
  ASSERT_FALSE(events.empty());
  const CliqueEvent* bridge = nullptr;
  for (const auto& ev : events) {
    if (ev.type == CliqueEvent::Type::kBridge) bridge = &ev;
  }
  ASSERT_NE(bridge, nullptr);
  EXPECT_EQ(bridge->clique_size, 7u);
  auto plateaus = FindPlateaus(dual.after, 7, 3);
  ASSERT_FALSE(plateaus.empty());
  std::vector<VertexId> plateau_vertices = plateaus[0].vertices;
  std::sort(plateau_vertices.begin(), plateau_vertices.end());
  std::vector<VertexId> event_vertices = bridge->vertices;
  std::sort(event_vertices.begin(), event_vertices.end());
  EXPECT_EQ(plateau_vertices, event_vertices);
}

TEST(IntegrationTest, DatasetChurnTableThreePipeline) {
  // The Table III pipeline at test scale, asserting both the speed *shape*
  // (update touches far fewer edges than a full peel visits) and equality.
  Dataset ds = MakeDataset("dblp", 5, 0.15);
  Rng rng(6);
  size_t churn = std::max<size_t>(1, ds.graph.NumEdges() / 200);
  auto events = RandomChurn(ds.graph, churn, churn, rng);
  DynamicTriangleCore dyn{DeltaCsr(ds.graph)};
  const UpdateStats stats = dyn.ApplyBatch(events).work;
  TriangleCoreResult fresh = ComputeTriangleCores(dyn.graph());
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    ASSERT_EQ(dyn.kappa()[e], fresh.kappa[e]);
  });
  // Locality: per-event touched edges must be a sliver of the edge count.
  EXPECT_LT(stats.candidate_edges / events.size(),
            std::max<uint64_t>(ds.graph.NumEdges() / 10, 1));
}

}  // namespace
}  // namespace tkc
