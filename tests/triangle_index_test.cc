// The flat edge → triangle-partner index (core/triangle_index.h), built
// from one recorded oriented enumeration, against a reference built from
// the full-adjacency triangle list, and its determinism: contents and the
// peel order built on it depend only on EdgeIds, never on threads.

#include "tkc/core/triangle_index.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

// Power-law graph with a planted clique (long out-lists, so the gallop
// regime engages) and dead-id holes from random removals.
Graph MakeHoledGraph(uint64_t seed) {
  Rng rng(seed);
  Graph g = PowerLawCluster(150, 4, 0.6, rng);
  PlantRandomClique(g, 40, rng);
  std::vector<EdgeId> live = g.EdgeIds();
  for (size_t i = 0; i < live.size() / 8; ++i) {
    const EdgeId e = live[rng.NextBounded(live.size())];
    if (g.IsEdgeAlive(e)) g.RemoveEdgeById(e);
  }
  return g;
}

// The partner lists a correct index must hold, built independently of the
// oriented enumeration: every triangle of the full-adjacency ListTriangles
// contributes its other two edges to each of its three edges.
std::vector<std::vector<TrianglePartnerIndex::Partners>> ReferencePartners(
    const Graph& g) {
  std::vector<std::vector<TrianglePartnerIndex::Partners>> want(
      g.EdgeCapacity());
  for (const Triangle& t : ListTriangles(CsrGraph(g))) {
    want[t.ab].push_back(std::minmax(t.ac, t.bc));
    want[t.ac].push_back(std::minmax(t.ab, t.bc));
    want[t.bc].push_back(std::minmax(t.ab, t.ac));
  }
  for (auto& list : want) std::sort(list.begin(), list.end());
  return want;
}

void ExpectMatchesReference(const Graph& g, const TrianglePartnerIndex& index,
                            const std::string& what) {
  const auto want = ReferencePartners(g);
  for (EdgeId e = 0; e < g.EdgeCapacity(); ++e) {
    const auto got = index.Of(e);
    ASSERT_EQ(std::vector<TrianglePartnerIndex::Partners>(got.begin(),
                                                          got.end()),
              want[e])
        << what << " edge " << e;
  }
  EXPECT_EQ(index.Supports(), ComputeEdgeSupports(CsrGraph(g), 1)) << what;
}

TEST(TriangleIndexTest, PartnersAreExactlyTheFullAdjacencyTriangles) {
  for (uint64_t seed : {1, 2, 3}) {
    const Graph g = MakeHoledGraph(seed);
    const CsrGraph csr = CsrGraph::Freeze(g);
    for (int threads : {1, 2, 8}) {
      ExpectMatchesReference(g, TrianglePartnerIndex::Build(csr, threads),
                             "seed " + std::to_string(seed) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

TEST(TriangleIndexTest, IdenticalAcrossThreads) {
  const Graph g = MakeHoledGraph(7);
  const CsrGraph csr = CsrGraph::Freeze(g);
  const TrianglePartnerIndex base = TrianglePartnerIndex::Build(csr, 1);
  EXPECT_EQ(base.NumEntries(), 3 * CountTriangles(csr));
  for (int threads : {2, 8}) {
    EXPECT_TRUE(TrianglePartnerIndex::Build(csr, threads) == base)
        << "threads=" << threads;
  }
}

TEST(TriangleIndexTest, PeelOrderIdenticalAcrossThreadsAndEntry) {
  const Graph g = MakeHoledGraph(11);
  const TriangleCoreResult base = ComputeTriangleCores(g);
  for (int threads : {1, 2, 8}) {
    AnalysisContext ctx(CsrGraph::Freeze(g), threads);
    const TriangleCoreResult r = ComputeTriangleCores(ctx);
    EXPECT_EQ(r.kappa, base.kappa) << threads;
    EXPECT_EQ(r.order, base.order) << threads;
    EXPECT_EQ(r.peel_sequence, base.peel_sequence) << threads;
    EXPECT_EQ(r.max_kappa, base.max_kappa);
    EXPECT_EQ(r.triangle_count, base.triangle_count);
  }
  const TriangleCoreResult from_csr = ComputeTriangleCores(CsrGraph(g));
  EXPECT_EQ(from_csr.order, base.order);
  EXPECT_EQ(from_csr.peel_sequence, base.peel_sequence);
}

TEST(TriangleIndexTest, EmptyAndTriangleFreeGraphs) {
  Graph cycle(8);
  for (VertexId v = 0; v < 8; ++v) cycle.AddEdge(v, (v + 1) % 8);
  const CsrGraph empty{Graph(0)};
  const CsrGraph triangle_free(cycle);
  for (const CsrGraph* csr : {&empty, &triangle_free}) {
    for (int threads : {1, 2, 8}) {
      const TrianglePartnerIndex index =
          TrianglePartnerIndex::Build(*csr, threads);
      EXPECT_EQ(index.NumEntries(), 0u);
      for (EdgeId e = 0; e < csr->EdgeCapacity(); ++e) {
        EXPECT_TRUE(index.Of(e).empty());
      }
      EXPECT_EQ(index.Supports(),
                std::vector<uint32_t>(csr->EdgeCapacity(), 0));
    }
  }
}

}  // namespace
}  // namespace tkc
