#include "tkc/viz/dual_view.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(DualViewTest, NoAdditionsEmptyAfterPlot) {
  Graph g(10);
  PlantClique(g, {0, 1, 2, 3});
  DualViewResult dual = BuildDualView(g, {});
  EXPECT_EQ(dual.before.points.size(), 10u);
  EXPECT_TRUE(dual.after.points.empty());
}

TEST(DualViewTest, GrowingCliqueShowsInAfterPlot) {
  // A 5-clique {0..4} grows by vertex 5 attaching to everyone — the
  // Figure 8(c) "Astrology page joins the clique" situation.
  Graph g(12);
  PlantClique(g, {0, 1, 2, 3, 4});
  std::vector<EdgeEvent> adds;
  for (VertexId v = 0; v < 5; ++v) {
    adds.push_back({EdgeEvent::Kind::kInsert, v, 5});
  }
  DualViewResult dual = BuildDualView(g, adds);
  // plot(b) contains exactly the 6 clique vertices, at height 6.
  ASSERT_EQ(dual.after.points.size(), 6u);
  EXPECT_EQ(dual.after.MaxValue(), 6u);
  // plot(a) still shows the old 5-clique at height 5.
  EXPECT_EQ(dual.before.MaxValue(), 5u);
  // New κ values match a fresh decomposition (incremental step 4 worked).
  TriangleCoreResult fresh = ComputeTriangleCores(*dual.new_graph);
  dual.new_graph->ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(dual.new_kappa[e], fresh.kappa[e]);
  });
}

TEST(DualViewTest, UnrelatedRegionsStayOutOfAfterPlot) {
  Graph g(20);
  PlantClique(g, {0, 1, 2, 3, 4});    // untouched clique
  PlantClique(g, {10, 11, 12, 13});   // will grow
  std::vector<EdgeEvent> adds;
  for (VertexId v = 10; v < 14; ++v) {
    adds.push_back({EdgeEvent::Kind::kInsert, v, 14});
  }
  DualViewResult dual = BuildDualView(g, adds);
  for (const auto& p : dual.after.points) {
    EXPECT_TRUE(p.vertex >= 10 && p.vertex <= 14)
        << "vertex " << p.vertex << " leaked into plot(b)";
  }
}

TEST(DualViewTest, CorrespondenceLocatesOldPositions) {
  // Two separate cliques merge through new edges: the selected vertices
  // appear as two clusters in plot(a) — the paper's marker semantics.
  // A 6-clique and a 4-clique merge; a decoy 5-clique sits between them in
  // plot(a)'s density ordering, so the selection appears as two separated
  // clusters there.
  Graph g(20);
  PlantClique(g, {0, 1, 2, 3, 4, 5});
  PlantClique(g, {6, 7, 8, 9});
  PlantClique(g, {12, 13, 14, 15, 16});  // decoy
  std::vector<EdgeEvent> adds;
  for (VertexId a : {0, 1, 2, 3, 4, 5}) {
    for (VertexId b : {6, 7, 8, 9}) {
      adds.push_back({EdgeEvent::Kind::kInsert, a, b});
    }
  }
  DualViewResult dual = BuildDualView(g, adds);
  EXPECT_EQ(dual.after.MaxValue(), 10u);  // merged 10-clique

  std::vector<VertexId> selected{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Correspondence corr = LocateInBefore(dual, selected, 2);
  ASSERT_EQ(corr.positions_in_before.size(), 10u);
  for (int64_t pos : corr.positions_in_before) EXPECT_GE(pos, 0);
  ASSERT_EQ(corr.clusters.size(), 2u);
  EXPECT_EQ(corr.clusters[0].size(), 6u);
  EXPECT_EQ(corr.clusters[1].size(), 4u);
}

TEST(DualViewTest, NewVertexAbsentFromBefore) {
  Graph g(6);
  PlantClique(g, {0, 1, 2});
  std::vector<EdgeEvent> adds{{EdgeEvent::Kind::kInsert, 0, 7},
                              {EdgeEvent::Kind::kInsert, 1, 7},
                              {EdgeEvent::Kind::kInsert, 2, 7}};
  DualViewResult dual = BuildDualView(g, adds);
  Correspondence corr = LocateInBefore(dual, {7});
  ASSERT_EQ(corr.positions_in_before.size(), 1u);
  EXPECT_EQ(corr.positions_in_before[0], -1);
  EXPECT_TRUE(corr.clusters.empty());
}

TEST(DualViewTest, UpdateStatsRecorded) {
  Graph g(8);
  PlantClique(g, {0, 1, 2, 3});
  std::vector<EdgeEvent> adds{{EdgeEvent::Kind::kInsert, 0, 4},
                              {EdgeEvent::Kind::kInsert, 1, 4}};
  DualViewResult dual = BuildDualView(g, adds);
  EXPECT_GT(dual.update_stats.triangles_scanned, 0u);
}

}  // namespace
}  // namespace tkc
