#include "tkc/verify/verify.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/graph.h"
#include "tkc/util/random.h"
#include "tkc/verify/certificate.h"
#include "tkc/verify/nesting.h"
#include "tkc/verify/oracle.h"
#include "tkc/verify/structural.h"

namespace tkc::verify {
namespace {

// --- Clean inputs: every oracle passes ---------------------------------

TEST(VerifyTest, CleanDecompositionPassesFullVerification) {
  VerifyReport report = RunFullVerification(PaperFigure2Graph());
  EXPECT_TRUE(report.AllPassed())
      << report.FirstFailure()->name << ": " << report.FirstFailure()->detail;
  for (const char* name :
       {"graph.structure", "csr.structure", "csr.mirror", "kappa.shape",
        "kappa.soundness", "kappa.maximality", "static.modes_agree",
        "hierarchy.nesting", "extraction.nesting"}) {
    const InvariantCheck* check = report.Find(name);
    ASSERT_NE(check, nullptr) << name;
    EXPECT_TRUE(check->passed) << name;
  }
  const std::string json = report.ToJson().Dump();
  EXPECT_NE(json.find("\"schema\":\"tkc.verify.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\":true"), std::string::npos);
}

TEST(VerifyTest, CleanRandomGraphsPassBothModes) {
  // One run certifies the store peel and cross-checks the recompute peel.
  for (uint64_t seed : {3, 11}) {
    Rng rng(seed);
    Graph g = PowerLawCluster(120, 3, 0.5, rng);
    VerifyReport report = RunFullVerification(g);
    EXPECT_TRUE(report.AllPassed()) << "seed=" << seed;
    ASSERT_NE(report.Find("static.modes_agree"), nullptr);
    EXPECT_TRUE(report.Find("static.modes_agree")->passed) << "seed=" << seed;
  }
}

TEST(VerifyTest, FullVerificationWithEventsRunsReplayOracles) {
  Rng rng(5);
  Graph g = PowerLawCluster(60, 3, 0.5, rng);
  VerifyOptions options;
  options.events = {{EdgeEvent::Kind::kInsert, 0, 50},
                    {EdgeEvent::Kind::kInsert, 1, 50},
                    {EdgeEvent::Kind::kInsert, 0, 1},
                    {EdgeEvent::Kind::kRemove, 0, 50}};
  options.check_every = 2;
  VerifyReport report = RunFullVerification(g, options);
  EXPECT_TRUE(report.AllPassed());
  const InvariantCheck* check = report.Find("dynamic.replay");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->passed);
}

// --- Seeded faults: each oracle provably catches its corruption --------
//
// K4 is the controlled specimen: six edges, each in exactly two
// triangles, so the true decomposition is κ ≡ 2 and every counterexample
// below is computable by hand.

TEST(VerifyTest, SoundnessCatchesInflatedKappa) {
  Graph g = CompleteGraph(4);
  TriangleCoreResult r = ComputeTriangleCores(g);
  ASSERT_EQ(r.max_kappa, 2u);

  std::vector<uint32_t> kappa = r.kappa;
  kappa[3] += 1;  // claim edge 3 reaches level 3: off-by-one corruption
  VerifyReport report = CheckKappaCertificate(CsrGraph(g), kappa);

  EXPECT_FALSE(report.AllPassed());
  const InvariantCheck* soundness = report.Find("kappa.soundness");
  ASSERT_NE(soundness, nullptr);
  EXPECT_FALSE(soundness->passed);
  ASSERT_TRUE(soundness->counterexample.has_value());
  const Counterexample& ce = *soundness->counterexample;
  EXPECT_EQ(ce.edge, 3u);
  EXPECT_EQ(ce.level, 3u);
  // No partner reaches level 3, so the recount finds zero qualified
  // triangles against a claim of three.
  EXPECT_EQ(ce.observed, 0u);
  EXPECT_EQ(ce.expected, 3u);
  // Only soundness breaks: the naive cores themselves are unchanged.
  EXPECT_TRUE(report.Find("kappa.maximality")->passed);
  EXPECT_TRUE(report.Find("kappa.shape")->passed);
}

TEST(VerifyTest, MaximalityCatchesDeflatedKappa) {
  Graph g = CompleteGraph(4);
  // Uniform deflation: internally consistent at level 1 (soundness holds),
  // but K4 is a 2-triangle-core, so maximality must object.
  std::vector<uint32_t> kappa(g.EdgeCapacity(), 1);
  VerifyReport report = CheckKappaCertificate(CsrGraph(g), kappa);

  EXPECT_FALSE(report.AllPassed());
  EXPECT_TRUE(report.Find("kappa.soundness")->passed);
  const InvariantCheck* maximality = report.Find("kappa.maximality");
  ASSERT_NE(maximality, nullptr);
  EXPECT_FALSE(maximality->passed);
  ASSERT_TRUE(maximality->counterexample.has_value());
  const Counterexample& ce = *maximality->counterexample;
  EXPECT_EQ(ce.edge, 0u);     // first survivor scanned
  EXPECT_EQ(ce.level, 2u);    // the level the naive core reaches
  EXPECT_EQ(ce.observed, 1u); // the undervalued claim
  EXPECT_EQ(ce.expected, 2u);
}

TEST(VerifyTest, ShapeCatchesDirtyTombstone) {
  Graph g = CompleteGraph(4);
  TriangleCoreResult r = ComputeTriangleCores(g);
  const EdgeId dead = g.FindEdge(0, 1);
  g.RemoveEdge(0, 1);
  std::vector<uint32_t> kappa = ComputeTriangleCores(g).kappa;
  ASSERT_EQ(kappa[dead], 0u);
  kappa[dead] = r.kappa[dead];  // stale value survives the removal

  VerifyReport report = CheckKappaCertificate(CsrGraph(g), kappa);
  const InvariantCheck* shape = report.Find("kappa.shape");
  ASSERT_NE(shape, nullptr);
  EXPECT_FALSE(shape->passed);
  ASSERT_TRUE(shape->counterexample.has_value());
  EXPECT_EQ(shape->counterexample->edge, dead);
}

TEST(VerifyTest, StructuralCatchesUnsortedAdjacency) {
  Graph g = PaperFigure2Graph();
  // Find a vertex with degree >= 2 and break its sort order.
  VertexId victim = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) >= 2) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidVertex);
  auto& adj = g.MutableNeighborsForTest(victim);
  std::swap(adj.front(), adj.back());

  InvariantCheck check = CheckGraphStructure(g);
  EXPECT_FALSE(check.passed);
  ASSERT_TRUE(check.counterexample.has_value());
  EXPECT_EQ(check.counterexample->u, victim);
  EXPECT_NE(check.counterexample->note.find("sorted"), std::string::npos);
}

TEST(VerifyTest, MirrorCatchesStaleCsrSnapshot) {
  Graph g = CompleteGraph(4);
  CsrGraph csr(g);
  EXPECT_TRUE(CheckMirrorConsistency(g, csr).passed);
  g.AddEdge(0, 4);  // mutate the dynamic side only
  InvariantCheck check = CheckMirrorConsistency(g, csr);
  EXPECT_FALSE(check.passed);
  ASSERT_TRUE(check.counterexample.has_value());
}

TEST(VerifyTest, NestingCatchesTamperedHierarchy) {
  Rng rng(13);
  const CsrGraph g(PowerLawCluster(80, 3, 0.6, rng));
  TriangleCoreResult r = ComputeTriangleCores(g);
  CoreHierarchy h = BuildCoreHierarchy(g, r);
  ASSERT_FALSE(h.nodes.empty());
  EXPECT_TRUE(CheckHierarchyNesting(h, g, r).passed);

  CoreHierarchy tampered = h;
  tampered.nodes[0].subtree_edges += 1;
  EXPECT_FALSE(CheckHierarchyNesting(tampered, g, r).passed);
}

// --- The machine-readable artifact names the exact fault ---------------

TEST(VerifyTest, CounterexampleSurvivesIntoVerifyV1Json) {
  Graph g = CompleteGraph(4);
  std::vector<uint32_t> kappa = ComputeTriangleCores(g).kappa;
  kappa[3] += 1;
  VerifyReport report = CheckKappaCertificate(CsrGraph(g), kappa);

  const std::string json = report.ToJson().Dump();
  EXPECT_NE(json.find("\"schema\":\"tkc.verify.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kappa.soundness\""), std::string::npos);
  // The minimal counterexample: edge id, level, observed vs required.
  EXPECT_NE(json.find("\"edge\":3"), std::string::npos);
  EXPECT_NE(json.find("\"level\":3"), std::string::npos);
  EXPECT_NE(json.find("\"observed\":0"), std::string::npos);
  EXPECT_NE(json.find("\"expected\":3"), std::string::npos);
}

// --- Replay oracle: diffing a maintainer against Algorithm 1 -----------

TEST(VerifyTest, ReplayEventLogMatchesRecomputeAtEveryStep) {
  Rng rng(29);
  Graph base = PowerLawCluster(50, 3, 0.5, rng);
  std::vector<EdgeEvent> events;
  for (VertexId v = 0; v + 1 < 12; ++v) {
    events.push_back({EdgeEvent::Kind::kInsert, v, 49});
  }
  events.push_back({EdgeEvent::Kind::kRemove, 0, 49});

  ReplayOptions options;
  options.check_every = 1;
  VerifyReport report = ReplayEventLog(base, events, options);
  EXPECT_TRUE(report.AllPassed())
      << report.FirstFailure()->name << ": " << report.FirstFailure()->detail;
}

}  // namespace
}  // namespace tkc::verify
