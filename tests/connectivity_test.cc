#include "tkc/graph/connectivity.h"

#include <gtest/gtest.h>
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(ConnectivityTest, SingleComponent) {
  ComponentResult r = ConnectedComponents(CsrGraph(CycleGraph(6)));
  EXPECT_EQ(r.num_components, 1u);
}

TEST(ConnectivityTest, IsolatedVerticesAreComponents) {
  Graph g(4);
  g.AddEdge(0, 1);
  ComponentResult r = ConnectedComponents(CsrGraph(g));
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.component_of[0], r.component_of[1]);
  EXPECT_NE(r.component_of[2], r.component_of[3]);
}

TEST(ConnectivityTest, TwoCliques) {
  Graph g(10);
  PlantClique(g, {0, 1, 2, 3, 4});
  PlantClique(g, {5, 6, 7, 8, 9});
  const CsrGraph two(g);
  ComponentResult r = ConnectedComponents(two);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_TRUE(SameComponent(two, 0, 4));
  EXPECT_FALSE(SameComponent(two, 0, 5));
  g.AddEdge(4, 5);
  EXPECT_TRUE(SameComponent(CsrGraph(g), 0, 9));
}

TEST(ConnectivityTest, ReachableFrom) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  const CsrGraph csr(g);
  auto reach = ReachableFrom(csr, 0);
  EXPECT_EQ(reach.size(), 3u);
  auto lone = ReachableFrom(csr, 5);
  EXPECT_EQ(lone.size(), 1u);
  EXPECT_EQ(lone[0], 5u);
}

TEST(ConnectivityTest, ComponentCountMatchesUnionOfParts) {
  Rng rng(77);
  // Build k independent random blobs shifted apart; expect >= k components.
  Graph g;
  for (int b = 0; b < 3; ++b) {
    Rng local(100 + b);
    Graph blob = GnmRandom(20, 30, local);
    VertexId offset = g.NumVertices();
    g.EnsureVertices(offset + 20);
    blob.ForEachEdge([&](EdgeId, const Edge& e) {
      g.AddEdge(e.u + offset, e.v + offset);
    });
  }
  const CsrGraph csr(g);
  ComponentResult r = ConnectedComponents(csr);
  EXPECT_GE(r.num_components, 3u);
  EXPECT_FALSE(SameComponent(csr, 0, 25));
  (void)rng;
}

}  // namespace
}  // namespace tkc
