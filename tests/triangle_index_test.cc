// The flat edge → triangle-partner index (core/triangle_index.h) against a
// full-adjacency recount, and its determinism: contents and the peel order
// built on it depend only on EdgeIds, never on threads, kernel or relabel.

#include "tkc/core/triangle_index.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "scoped_default_kernel.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

// Power-law graph with a planted clique (out-degrees past
// kBitmapHubCutoff, so the bitmap kernel's hub pass fires) and dead-id
// holes from random removals.
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

TEST(TriangleIndexTest, PartnersAreExactlyTheFullAdjacencyTriangles) {
  for (uint64_t seed : {1, 2, 3}) {
    const Graph g = MakeHoledGraph(seed);
    const CsrGraph csr(g);
    const std::vector<uint32_t> support = ComputeEdgeSupports(csr, 1);
    for (IntersectKernel kernel :
         {IntersectKernel::kScalar, IntersectKernel::kBitmap,
          IntersectKernel::kAuto}) {
      ScopedDefaultKernel scoped(kernel);
      const TrianglePartnerIndex index =
          TrianglePartnerIndex::Build(csr, support, 2);
      for (EdgeId e = 0; e < g.EdgeCapacity(); ++e) {
        std::vector<TrianglePartnerIndex::Partners> want;
        if (g.IsEdgeAlive(e)) {
          const Edge edge = g.GetEdge(e);
          g.ForEachCommonNeighbor(edge.u, edge.v,
                                  [&](VertexId, EdgeId uw, EdgeId vw) {
                                    want.push_back(std::minmax(uw, vw));
                                  });
          std::sort(want.begin(), want.end());
        }
        const auto got = index.Of(e);
        ASSERT_EQ(std::vector<TrianglePartnerIndex::Partners>(got.begin(),
                                                              got.end()),
                  want)
            << "seed " << seed << " kernel " << KernelName(kernel)
            << " edge " << e;
      }
    }
  }
}

TEST(TriangleIndexTest, IdenticalAcrossThreadsKernelsAndRelabel) {
  const Graph g = MakeHoledGraph(7);
  const CsrGraph plain = CsrGraph::Freeze(g);
  const CsrGraph relabeled = CsrGraph::Freeze(g, RelabelMode::kDegree);
  const std::vector<uint32_t> support = ComputeEdgeSupports(plain, 1);
  const TrianglePartnerIndex base =
      TrianglePartnerIndex::Build(plain, support, 1);
  EXPECT_EQ(base.NumEntries(), 3 * CountTriangles(g));
  for (const CsrGraph* csr : {&plain, &relabeled}) {
    for (int threads : {1, 2, 8}) {
      for (IntersectKernel kernel :
           {IntersectKernel::kScalar, IntersectKernel::kBitmap,
            IntersectKernel::kAuto}) {
        ScopedDefaultKernel scoped(kernel);
        EXPECT_TRUE(TrianglePartnerIndex::Build(*csr, support, threads) ==
                    base)
            << "relabeled=" << csr->IsRelabeled() << " threads=" << threads
            << " kernel=" << KernelName(kernel);
      }
    }
  }
}

TEST(TriangleIndexTest, PeelOrderIdenticalAcrossThreadsRelabelAndEntry) {
  const Graph g = MakeHoledGraph(11);
  const TriangleCoreResult base = ComputeTriangleCores(g);
  for (RelabelMode relabel : {RelabelMode::kNone, RelabelMode::kDegree}) {
    for (int threads : {1, 2, 8}) {
      AnalysisContext ctx(CsrGraph::Freeze(g, relabel), threads);
      const TriangleCoreResult r = ComputeTriangleCores(ctx);
      EXPECT_EQ(r.kappa, base.kappa) << threads;
      EXPECT_EQ(r.order, base.order) << threads;
      EXPECT_EQ(r.peel_sequence, base.peel_sequence) << threads;
      EXPECT_EQ(r.max_kappa, base.max_kappa);
      EXPECT_EQ(r.triangle_count, base.triangle_count);
    }
  }
  const TriangleCoreResult from_csr = ComputeTriangleCores(CsrGraph(g));
  EXPECT_EQ(from_csr.order, base.order);
  EXPECT_EQ(from_csr.peel_sequence, base.peel_sequence);
}

TEST(TriangleIndexTest, EmptyAndTriangleFreeGraphs) {
  const CsrGraph empty{Graph(0)};
  const TrianglePartnerIndex none =
      TrianglePartnerIndex::Build(empty, ComputeEdgeSupports(empty, 1), 4);
  EXPECT_EQ(none.NumEntries(), 0u);

  Graph cycle(8);
  for (VertexId v = 0; v < 8; ++v) cycle.AddEdge(v, (v + 1) % 8);
  const CsrGraph csr(cycle);
  const TrianglePartnerIndex index =
      TrianglePartnerIndex::Build(csr, ComputeEdgeSupports(csr, 1), 4);
  EXPECT_EQ(index.NumEntries(), 0u);
  for (EdgeId e = 0; e < csr.EdgeCapacity(); ++e) {
    EXPECT_TRUE(index.Of(e).empty());
  }
}

}  // namespace
}  // namespace tkc
