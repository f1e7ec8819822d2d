#include "tkc/viz/density_plot.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

std::vector<uint32_t> KappaPlus2(const CsrGraph& g) {
  TriangleCoreResult r = ComputeTriangleCores(g);
  std::vector<uint32_t> co(g.EdgeCapacity(), 0);
  g.ForEachEdge([&](EdgeId e, const Edge&) { co[e] = r.kappa[e] + 2; });
  return co;
}

TEST(DensityPlotTest, EmptyGraph) {
  Graph g;
  DensityPlot plot = BuildDensityPlot(CsrGraph(g), {});
  EXPECT_TRUE(plot.points.empty());
  EXPECT_EQ(plot.MaxValue(), 0u);
}

TEST(DensityPlotTest, EveryVertexPlottedExactlyOnce) {
  Rng rng(1);
  Graph g = PowerLawCluster(150, 3, 0.6, rng);
  const CsrGraph csr(g);
  DensityPlot plot = BuildDensityPlot(csr, KappaPlus2(csr));
  ASSERT_EQ(plot.points.size(), g.NumVertices());
  std::set<VertexId> seen;
  for (const auto& p : plot.points) {
    EXPECT_TRUE(seen.insert(p.vertex).second);
  }
}

TEST(DensityPlotTest, CliqueFormsPlateauAtCliqueHeight) {
  Rng rng(2);
  Graph g = GnmRandom(200, 350, rng);
  auto members = PlantRandomClique(g, 11, rng);
  const CsrGraph csr(g);
  DensityPlot plot = BuildDensityPlot(csr, KappaPlus2(csr));
  // The 11 clique vertices must be plotted contiguously at value >= 11,
  // starting at position 0 (densest region first).
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_GE(plot.points[i].value, 11u) << "position " << i;
    EXPECT_TRUE(std::find(members.begin(), members.end(),
                          plot.points[i].vertex) != members.end())
        << "position " << i;
  }
  auto plateaus = FindPlateaus(plot, 11, 8);
  ASSERT_FALSE(plateaus.empty());
  EXPECT_GE(plateaus[0].vertices.size(), 11u - 1);
}

TEST(DensityPlotTest, TwoCliquesTwoPlateaus) {
  Graph g(40);
  PlantClique(g, {0, 1, 2, 3, 4, 5, 6, 7});          // 8-clique
  PlantClique(g, {20, 21, 22, 23, 24, 25});          // 6-clique
  const CsrGraph csr(g);
  DensityPlot plot = BuildDensityPlot(csr, KappaPlus2(csr));
  auto plateaus = FindPlateaus(plot, 6, 4);
  ASSERT_GE(plateaus.size(), 2u);
  EXPECT_EQ(plateaus[0].value, 8u);
  EXPECT_EQ(plateaus[1].value, 6u);
}

TEST(DensityPlotTest, ZeroVerticesToggle) {
  Graph g(10);
  PlantClique(g, {0, 1, 2, 3});
  const CsrGraph csr(g);
  auto co = KappaPlus2(csr);
  DensityPlot all = BuildDensityPlot(csr, co, true);
  DensityPlot dense = BuildDensityPlot(csr, co, false);
  EXPECT_EQ(all.points.size(), 10u);
  // Only the clique and anything reachable from it is plotted.
  EXPECT_EQ(dense.points.size(), 4u);
}

TEST(DensityPlotTest, PositionOf) {
  Graph g(5);
  PlantClique(g, {0, 1, 2});
  const CsrGraph csr(g);
  DensityPlot plot = BuildDensityPlot(csr, KappaPlus2(csr));
  EXPECT_GE(plot.PositionOf(1), 0);
  EXPECT_EQ(plot.PositionOf(99), -1);
}

TEST(DensityPlotTest, DeterministicOrdering) {
  Rng rng(3);
  Graph g = PowerLawCluster(100, 3, 0.5, rng);
  const CsrGraph csr(g);
  auto co = KappaPlus2(csr);
  DensityPlot a = BuildDensityPlot(csr, co);
  DensityPlot b = BuildDensityPlot(csr, co);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].vertex, b.points[i].vertex);
    EXPECT_EQ(a.points[i].value, b.points[i].value);
  }
}

TEST(DensityPlotTest, ComparePlotsIdentical) {
  Rng rng(4);
  Graph g = PowerLawCluster(80, 3, 0.5, rng);
  const CsrGraph csr(g);
  auto co = KappaPlus2(csr);
  DensityPlot a = BuildDensityPlot(csr, co);
  PlotComparison cmp = ComparePlots(a, a);
  EXPECT_DOUBLE_EQ(cmp.value_correlation, 1.0);
  EXPECT_DOUBLE_EQ(cmp.mean_abs_diff, 0.0);
  EXPECT_DOUBLE_EQ(cmp.identical_fraction, 1.0);
}

TEST(DensityPlotTest, ComparePlotsDetectsDifference) {
  Graph g(6);
  PlantClique(g, {0, 1, 2, 3});
  const CsrGraph csr(g);
  auto co = KappaPlus2(csr);
  DensityPlot a = BuildDensityPlot(csr, co);
  auto co2 = co;
  for (auto& v : co2) {
    if (v > 0) v += 3;
  }
  DensityPlot b = BuildDensityPlot(csr, co2);
  PlotComparison cmp = ComparePlots(a, b);
  EXPECT_GT(cmp.mean_abs_diff, 0.0);
  EXPECT_LT(cmp.identical_fraction, 1.0);
  EXPECT_EQ(cmp.max_abs_diff, 3.0);
}

TEST(DensityPlotTest, CsvSerialization) {
  Graph g(3);
  PlantClique(g, {0, 1, 2});
  const CsrGraph csr(g);
  DensityPlot plot = BuildDensityPlot(csr, KappaPlus2(csr));
  std::string csv = PlotToCsv(plot);
  EXPECT_NE(csv.find("index,vertex,co_clique_size"), std::string::npos);
  EXPECT_NE(csv.find("0,"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3
}

TEST(DensityPlotTest, FindPlateausRespectsMinLength) {
  DensityPlot plot;
  for (uint32_t i = 0; i < 3; ++i) plot.points.push_back({i, 10});
  for (uint32_t i = 3; i < 5; ++i) plot.points.push_back({i, 2});
  for (uint32_t i = 5; i < 12; ++i) plot.points.push_back({i, 8});
  auto long_only = FindPlateaus(plot, 8, 5);
  ASSERT_EQ(long_only.size(), 1u);
  EXPECT_EQ(long_only[0].begin, 5u);
  auto both = FindPlateaus(plot, 8, 2);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].value, 10u);  // sorted by value desc
}

}  // namespace
}  // namespace tkc
