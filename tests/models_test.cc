// Tests for the second wave of generators (R-MAT, Watts-Strogatz, random
// geometric) and the Rule 1 core-triangle recovery.

#include <gtest/gtest.h>
#include "tkc/core/core_extraction.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/stats.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(RmatTest, SizeAndSkew) {
  Rng rng(1);
  Graph g = Rmat(10, 8, 0.57, 0.19, 0.19, rng);
  EXPECT_EQ(g.NumVertices(), 1024u);
  // Rejection of duplicates loses some edges; most of the target arrives.
  EXPECT_GT(g.NumEdges(), 1024u * 8 / 2);
  EXPECT_LE(g.NumEdges(), 1024u * 8);
  // Skewed quadrant probabilities concentrate degree on low ids.
  uint64_t low_degree = 0, high_degree = 0;
  for (VertexId v = 0; v < 512; ++v) low_degree += g.Degree(v);
  for (VertexId v = 512; v < 1024; ++v) high_degree += g.Degree(v);
  EXPECT_GT(low_degree, 2 * high_degree);
}

TEST(RmatTest, UniformParamsApproachErdosRenyi) {
  Rng rng(2);
  Graph g = Rmat(8, 4, 0.25, 0.25, 0.25, rng);
  GraphStats s = ComputeGraphStats(CsrGraph(g));
  EXPECT_LT(s.global_clustering, 0.1);  // uniform R-MAT is nearly ER
}

TEST(WattsStrogatzTest, ZeroBetaIsRingLattice) {
  Rng rng(3);
  Graph g = WattsStrogatz(50, 3, 0.0, rng);
  EXPECT_EQ(g.NumEdges(), 150u);
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(g.Degree(v), 6u);
  const CsrGraph csr(g);
  // Lattice with k_half=3 is triangle-rich.
  EXPECT_GT(CountTriangles(csr), 0u);
}

TEST(WattsStrogatzTest, RewiringPreservesEdgeCount) {
  Rng rng(4);
  Graph g = WattsStrogatz(200, 2, 0.3, rng);
  EXPECT_EQ(g.NumEdges(), 400u);
}

TEST(WattsStrogatzTest, FullRewireDestroysClustering) {
  Rng rng1(5), rng2(5);
  Graph lattice = WattsStrogatz(400, 3, 0.0, rng1);
  Graph random = WattsStrogatz(400, 3, 1.0, rng2);
  EXPECT_GT(CountTriangles(CsrGraph(lattice)),
            3 * CountTriangles(CsrGraph(random)));
}

TEST(RandomGeometricTest, RadiusControlsDensity) {
  Rng rng1(6), rng2(6);
  Graph sparse = RandomGeometric(200, 0.05, rng1);
  Graph dense = RandomGeometric(200, 0.2, rng2);
  EXPECT_GT(dense.NumEdges(), 4 * std::max<size_t>(sparse.NumEdges(), 1));
}

TEST(RandomGeometricTest, CoordinatesReturnedAndConsistent) {
  Rng rng(7);
  std::vector<double> coords;
  Graph g = RandomGeometric(100, 0.15, rng, &coords);
  ASSERT_EQ(coords.size(), 200u);
  g.ForEachEdge([&](EdgeId, const Edge& e) {
    double dx = coords[2 * e.u] - coords[2 * e.v];
    double dy = coords[2 * e.u + 1] - coords[2 * e.v + 1];
    EXPECT_LE(dx * dx + dy * dy, 0.15 * 0.15 + 1e-12);
  });
}

TEST(RandomGeometricTest, GeometricGraphsClusterHighly) {
  Rng rng(8);
  Graph g = RandomGeometric(300, 0.12, rng);
  GraphStats s = ComputeGraphStats(CsrGraph(g));
  EXPECT_GT(s.global_clustering, 0.4);  // RGGs cluster ~0.59 in the plane
}

// ---- Rule 1 (appendix): core-triangle recovery from the peel order ----

TEST(Rule1Test, RecoversExactlyKappaTriangles) {
  Rng rng(9);
  Graph g = PowerLawCluster(150, 3, 0.7, rng);
  PlantRandomClique(g, 8, rng);
  const CsrGraph csr(g);
  TriangleCoreResult r = ComputeTriangleCores(csr);
  csr.ForEachEdge([&](EdgeId e, const Edge&) {
    auto core = CoreTrianglesOf(csr, r, e);
    EXPECT_EQ(core.size(), r.kappa[e]);
  });
}

TEST(Rule1Test, RecoveredTrianglesRespectTheorem1) {
  // Every recovered triangle's partner edges carry kappa >= kappa(e).
  Rng rng(10);
  const CsrGraph csr(PlantedPartition(3, 12, 0.5, 0.05, rng));
  TriangleCoreResult r = ComputeTriangleCores(csr);
  csr.ForEachEdge([&](EdgeId e, const Edge&) {
    for (const CoreTriangle& t : CoreTrianglesOf(csr, r, e)) {
      EXPECT_GE(r.kappa[t.e1], r.kappa[e]);
      EXPECT_GE(r.kappa[t.e2], r.kappa[e]);
    }
  });
}

TEST(Rule1Test, CliqueEdgesUseAllTriangles) {
  const CsrGraph csr(CompleteGraph(6));
  TriangleCoreResult r = ComputeTriangleCores(csr);
  EdgeId e = csr.FindEdge(0, 1);
  auto core = CoreTrianglesOf(csr, r, e);
  EXPECT_EQ(core.size(), 4u);  // every triangle on the edge is in the core
}

}  // namespace
}  // namespace tkc
