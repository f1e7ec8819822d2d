#include "tkc/core/hierarchy.h"

#include <algorithm>

#include <gtest/gtest.h>
#include "tkc/core/core_extraction.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

CoreHierarchy Build(const Graph& g) {
  const CsrGraph csr(g);
  return BuildCoreHierarchy(csr, ComputeTriangleCores(csr));
}

TEST(HierarchyTest, TriangleFreeGraphIsEmpty) {
  Graph g = CycleGraph(10);
  CoreHierarchy h = Build(g);
  EXPECT_TRUE(h.nodes.empty());
  EXPECT_TRUE(h.roots.empty());
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(h.LeafOf(e), UINT32_MAX);
  });
}

TEST(HierarchyTest, SingleCliqueIsAChain) {
  Graph g = CompleteGraph(7);  // kappa = 5 on all edges
  CoreHierarchy h = Build(g);
  // One component per level 1..5, chained parent->child.
  ASSERT_EQ(h.nodes.size(), 5u);
  ASSERT_EQ(h.roots.size(), 1u);
  uint32_t idx = h.roots[0];
  for (uint32_t k = 1; k <= 5; ++k) {
    const HierarchyNode& node = h.nodes[idx];
    EXPECT_EQ(node.k, k);
    EXPECT_EQ(node.subtree_vertices, 7u);
    EXPECT_EQ(node.subtree_edges, 21u);
    if (k < 5) {
      ASSERT_EQ(node.children.size(), 1u);
      EXPECT_TRUE(node.edges.empty());  // no edge peaks below kappa=5
      idx = node.children[0];
    } else {
      EXPECT_TRUE(node.children.empty());
      EXPECT_EQ(node.edges.size(), 21u);
    }
  }
}

TEST(HierarchyTest, DisjointCliquesGetSeparateSubtrees) {
  Graph g(20);
  PlantClique(g, {0, 1, 2, 3, 4, 5});     // kappa 4
  PlantClique(g, {10, 11, 12, 13});       // kappa 2
  CoreHierarchy h = Build(g);
  ASSERT_EQ(h.roots.size(), 2u);
  // Leaves: the 6-clique edges peak at k=4, the 4-clique edges at k=2.
  EdgeId e6 = g.FindEdge(0, 1);
  EdgeId e4 = g.FindEdge(10, 11);
  ASSERT_NE(h.LeafOf(e6), UINT32_MAX);
  ASSERT_NE(h.LeafOf(e4), UINT32_MAX);
  EXPECT_EQ(h.nodes[h.LeafOf(e6)].k, 4u);
  EXPECT_EQ(h.nodes[h.LeafOf(e4)].k, 2u);
}

TEST(HierarchyTest, NestedDensitySplits) {
  // Two 6-cliques linked through a weak 4-clique bridge: one triangle-
  // connected component at k=1..2, splitting into the two dense cliques at
  // k=3..4 — the k=2 node must have two children.
  Graph g(12);
  PlantClique(g, {0, 1, 2, 3, 4, 5});
  PlantClique(g, {6, 7, 8, 9, 10, 11});
  PlantClique(g, {4, 5, 6, 7});  // bridge, kappa 2 on its cross edges
  CoreHierarchy h = Build(g);
  ASSERT_EQ(h.roots.size(), 1u);
  size_t per_level[6] = {0, 0, 0, 0, 0, 0};
  for (const HierarchyNode& node : h.nodes) {
    ASSERT_LE(node.k, 5u);
    ++per_level[node.k];
  }
  EXPECT_EQ(per_level[1], 1u);
  EXPECT_EQ(per_level[2], 1u);
  EXPECT_EQ(per_level[3], 2u);
  EXPECT_EQ(per_level[4], 2u);
  // The split happens below the k=2 node.
  for (const HierarchyNode& node : h.nodes) {
    if (node.k == 2) {
      EXPECT_EQ(node.children.size(), 2u);
    }
  }
  // A bridge cross edge peaks at k=2.
  EdgeId cross = g.FindEdge(4, 6);
  TriangleCoreResult r = ComputeTriangleCores(g);
  EXPECT_EQ(r.kappa[cross], 2u);
  EXPECT_EQ(h.nodes[h.LeafOf(cross)].k, 2u);
}

TEST(HierarchyTest, ParentChildInvariants) {
  Rng rng(9);
  Graph g = PowerLawCluster(300, 3, 0.7, rng);
  PlantRandomClique(g, 9, rng);
  const CsrGraph csr(g);
  TriangleCoreResult r = ComputeTriangleCores(csr);
  CoreHierarchy h = BuildCoreHierarchy(csr, r);
  for (uint32_t i = 0; i < h.nodes.size(); ++i) {
    const HierarchyNode& node = h.nodes[i];
    if (node.parent != UINT32_MAX) {
      const HierarchyNode& parent = h.nodes[node.parent];
      EXPECT_EQ(parent.k + 1, node.k);
      // Child components are contained in the parent.
      EXPECT_LE(node.subtree_edges, parent.subtree_edges);
      EXPECT_LE(node.subtree_vertices, parent.subtree_vertices);
      EXPECT_TRUE(std::find(parent.children.begin(), parent.children.end(),
                            i) != parent.children.end());
    } else {
      EXPECT_EQ(node.k, 1u);
      EXPECT_TRUE(std::find(h.roots.begin(), h.roots.end(), i) !=
                  h.roots.end());
    }
    // Peak edges really peak at this level.
    for (EdgeId e : node.edges) {
      EXPECT_EQ(r.kappa[e], node.k);
      EXPECT_EQ(h.LeafOf(e), i);
    }
  }
  // Every edge with kappa >= 1 has a leaf at exactly its kappa.
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    if (r.kappa[e] == 0) {
      EXPECT_EQ(h.LeafOf(e), UINT32_MAX);
    } else {
      ASSERT_NE(h.LeafOf(e), UINT32_MAX);
      EXPECT_EQ(h.nodes[h.LeafOf(e)].k, r.kappa[e]);
    }
  });
}

TEST(HierarchyTest, RenderedOutline) {
  Graph g = CompleteGraph(5);
  CoreHierarchy h = Build(g);
  std::string s = HierarchyToString(h);
  EXPECT_NE(s.find("k=1"), std::string::npos);
  EXPECT_NE(s.find("k=3"), std::string::npos);
  EXPECT_NE(s.find("vertices=5"), std::string::npos);
}

}  // namespace
}  // namespace tkc
