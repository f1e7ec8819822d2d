#include "tkc/baselines/dn_graph.h"

#include <gtest/gtest.h>
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

std::vector<uint32_t> LiveValues(const Graph& g,
                                 const std::vector<uint32_t>& per_edge) {
  std::vector<uint32_t> out;
  g.ForEachEdge([&](EdgeId e, const Edge&) { out.push_back(per_edge[e]); });
  return out;
}

TEST(DnGraphTest, CliqueLambda) {
  Graph g = CompleteGraph(7);
  DnGraphResult r = TriDn(AnalysisContext(g));
  g.ForEachEdge([&](EdgeId e, const Edge&) { EXPECT_EQ(r.lambda[e], 5u); });
}

TEST(DnGraphTest, TriangleFreeLambdaZero) {
  Graph g = CycleGraph(9);
  const AnalysisContext ctx(g);
  DnGraphResult tri = TriDn(ctx);
  DnGraphResult bi = BiTriDn(ctx);
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(tri.lambda[e], 0u);
    EXPECT_EQ(bi.lambda[e], 0u);
  });
}

// Section VI, Claim 3: for every edge, the converged valid λ̃(e) equals
// κ(e). This is the paper's theoretical bridge to DN-Graph; we verify it on
// every model.
class Claim3Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Claim3Sweep, TriDnAndBiTriDnConvergeToKappa) {
  Rng rng(GetParam());
  Graph graphs[3] = {ErdosRenyi(50, 0.15, rng),
                     PowerLawCluster(80, 3, 0.7, rng),
                     PlantedPartition(3, 14, 0.5, 0.04, rng)};
  for (Graph& g : graphs) {
    const AnalysisContext ctx(g);
    TriangleCoreResult cores = ComputeTriangleCores(ctx);
    DnGraphResult tri = TriDn(ctx);
    DnGraphResult bi = BiTriDn(ctx);
    EXPECT_EQ(LiveValues(g, tri.lambda), LiveValues(g, cores.kappa));
    EXPECT_EQ(LiveValues(g, bi.lambda), LiveValues(g, cores.kappa));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Claim3Sweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DnGraphTest, BiTriDnConvergesInFewerPasses) {
  Rng rng(42);
  Graph g = PowerLawCluster(300, 4, 0.7, rng);
  const AnalysisContext ctx(g);
  DnGraphResult tri = TriDn(ctx);
  DnGraphResult bi = BiTriDn(ctx);
  EXPECT_LE(bi.iterations, tri.iterations);
  EXPECT_EQ(LiveValues(g, bi.lambda), LiveValues(g, tri.lambda));
}

TEST(DnGraphTest, IterationCapStops) {
  Rng rng(7);
  Graph g = PowerLawCluster(200, 4, 0.7, rng);
  const AnalysisContext ctx(g);
  DnGraphResult capped = TriDn(ctx, 1);
  EXPECT_EQ(capped.iterations, 1u);
  // One pass starting at the support upper bound can only over-estimate.
  DnGraphResult full = TriDn(ctx);
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_GE(capped.lambda[e], full.lambda[e]);
  });
}

TEST(DnGraphTest, UpdateCountsAccumulate) {
  DnGraphResult r = TriDn(AnalysisContext(CompleteGraph(6)));
  EXPECT_GE(r.iterations, 1u);
  EXPECT_EQ(r.edge_updates, static_cast<uint64_t>(r.iterations) * 15u);
}

}  // namespace
}  // namespace tkc
