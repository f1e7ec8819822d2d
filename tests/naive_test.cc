#include "tkc/baselines/naive.h"

#include <gtest/gtest.h>
#include "tkc/core/core_extraction.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(NaiveTriangleCoreTest, Figure2Example) {
  Graph g = PaperFigure2Graph();
  std::vector<uint32_t> kappa = NaiveTriangleCores(g);
  EXPECT_EQ(kappa[g.FindEdge(0, 1)], 1u);  // AB
  EXPECT_EQ(kappa[g.FindEdge(0, 2)], 1u);  // AC
  EXPECT_EQ(kappa[g.FindEdge(1, 2)], 2u);  // BC
}

TEST(NaiveTriangleCoreTest, Clique) {
  Graph g = CompleteGraph(6);
  std::vector<uint32_t> kappa = NaiveTriangleCores(g);
  g.ForEachEdge([&](EdgeId e, const Edge&) { EXPECT_EQ(kappa[e], 4u); });
}

TEST(NaiveKCoreTest, Cycle) {
  Graph g = CycleGraph(7);
  std::vector<uint32_t> core = NaiveKCores(g);
  for (uint32_t c : core) EXPECT_EQ(c, 2u);
}

TEST(MaxCliqueTest, KnownGraphs) {
  EXPECT_EQ(MaxClique(CompleteGraph(6)).size(), 6u);
  EXPECT_EQ(MaxClique(CycleGraph(5)).size(), 2u);
  EXPECT_EQ(MaxClique(PathGraph(4)).size(), 2u);
  Graph g(1);
  EXPECT_LE(MaxClique(g).size(), 1u);
}

TEST(MaxCliqueTest, PlantedCliqueIsFound) {
  Rng rng(17);
  Graph g = GnmRandom(60, 100, rng);
  auto members = PlantRandomClique(g, 9, rng);
  bool exact = false;
  auto found = MaxClique(g, 0, &exact);
  EXPECT_TRUE(exact);
  EXPECT_GE(found.size(), 9u);
  EXPECT_TRUE(IsClique(CsrGraph(g), found));
}

TEST(MaxCliqueTest, ResultIsAlwaysAClique) {
  for (uint64_t seed : {4, 8, 15}) {
    Rng rng(seed);
    Graph g = ErdosRenyi(35, 0.3, rng);
    auto found = MaxClique(g);
    EXPECT_TRUE(IsClique(CsrGraph(g), found));
    EXPECT_GE(found.size(), 2u);  // 35 vertices at p=.3 surely has an edge
  }
}

TEST(MaxCliqueTest, BudgetCapsSearchButStaysValid) {
  Rng rng(23);
  Graph g = ErdosRenyi(50, 0.4, rng);
  bool exact = true;
  auto found = MaxClique(g, /*node_budget=*/5, &exact);
  EXPECT_FALSE(exact);
  EXPECT_TRUE(IsClique(CsrGraph(g), found));
}

TEST(MaxCliqueTest, CliqueSizeMatchesKappaPlus2Bound) {
  // κ_max + 2 upper-bounds ω on any graph; on a planted-clique graph the
  // bound is tight (Section III).
  Rng rng(29);
  Graph g = GnmRandom(80, 120, rng);
  PlantRandomClique(g, 10, rng);
  auto clique = MaxClique(g);
  EXPECT_EQ(clique.size(), 10u);
}

}  // namespace
}  // namespace tkc
