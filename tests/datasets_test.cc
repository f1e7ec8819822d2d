#include "tkc/gen/datasets.h"

#include <gtest/gtest.h>
#include "tkc/graph/triangle.h"

namespace tkc {
namespace {

TEST(DatasetsTest, RegistryCoversTableI) {
  auto specs = AllDatasetSpecs();
  ASSERT_EQ(specs.size(), 10u);
  EXPECT_EQ(specs.front().name, "synthetic");
  EXPECT_EQ(specs.back().name, "livejournal");
  for (const auto& spec : specs) {
    EXPECT_GT(spec.paper_vertices, 0u);
    EXPECT_GT(spec.paper_edges, 0u);
    EXPECT_FALSE(spec.model.empty());
  }
}

TEST(DatasetsTest, GetSpecByName) {
  DatasetSpec spec = GetDatasetSpec("ppi");
  EXPECT_EQ(spec.paper_name, "PPI");
  EXPECT_EQ(spec.paper_vertices, 4741u);
}

TEST(DatasetsTest, SmallOnesMatchPaperScale) {
  Dataset synthetic = MakeDataset("synthetic", 1);
  EXPECT_NEAR(synthetic.graph.NumVertices(), 60, 4);
  EXPECT_NEAR(static_cast<double>(synthetic.graph.NumEdges()), 308, 120);

  Dataset stocks = MakeDataset("stocks", 1);
  EXPECT_NEAR(stocks.graph.NumVertices(), 275, 6);
  EXPECT_NEAR(static_cast<double>(stocks.graph.NumEdges()), 1680, 450);
}

TEST(DatasetsTest, PpiHasLabeledComplexes) {
  Dataset ppi = MakeDataset("ppi", 7, 0.25);
  ASSERT_EQ(ppi.labels.size(), ppi.graph.NumVertices());
  uint32_t max_label = 0;
  for (uint32_t l : ppi.labels) max_label = std::max(max_label, l);
  EXPECT_GE(max_label, 2u);
  // Complexes are planted cliques: triangle-rich.
  EXPECT_GT(CountTriangles(CsrGraph(ppi.graph)), 100u);
}

TEST(DatasetsTest, Deterministic) {
  Dataset a = MakeDataset("dblp", 11, 0.1);
  Dataset b = MakeDataset("dblp", 11, 0.1);
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  a.graph.ForEachEdge([&](EdgeId, const Edge& e) {
    EXPECT_TRUE(b.graph.HasEdge(e.u, e.v));
  });
  Dataset c = MakeDataset("dblp", 12, 0.1);
  EXPECT_NE(a.graph.NumEdges(), c.graph.NumEdges());
}

TEST(DatasetsTest, SizeFactorScales) {
  Dataset big = MakeDataset("wiki", 3, 0.02);
  Dataset small = MakeDataset("wiki", 3, 0.01);
  EXPECT_GT(big.graph.NumVertices(), small.graph.NumVertices());
}

TEST(DatasetsTest, CollaborationDatasetsAreTriangleRich) {
  Dataset dblp = MakeDataset("dblp", 5, 0.2);
  TriangleStats stats = ComputeTriangleStats(CsrGraph(dblp.graph));
  EXPECT_GT(stats.triangle_count, dblp.graph.NumEdges() / 10);
}

}  // namespace
}  // namespace tkc
