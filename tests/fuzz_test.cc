// Long randomized stress runs over the dynamic maintainer with periodic
// full cross-checks, plus adversarial topologies designed to maximize
// promotion/demotion cascades (overlapping cliques, barbells, clique
// growth/decay cycles). Complements dynamic_core_test's per-step sweeps
// with longer horizons at larger scale.
//
// The parameterized differential driver at the bottom sweeps storage modes
// × thread counts and holds the maintained κ to the Algorithm-1 oracle and
// the independent κ-certificate every Nth step; CI runs this suite at
// TKC_CHECK_LEVEL=2, where every mutation additionally self-certifies.

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/analysis_context.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/parallel_ingest.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"
#include "tkc/verify/certificate.h"
#include "tkc/verify/oracle.h"

namespace tkc {
namespace {

// The maintainer beside a shadow Graph that applies the same events. The
// per-event tests hold κ to an Algorithm-1 recompute of the shadow, an
// independent substrate: both allocate fresh dense EdgeIds in event order,
// so κ is compared by id, and the endpoints of each id must agree.
class Shadowed {
 public:
  explicit Shadowed(const Graph& base) : shadow_(base), dyn_(DeltaCsr(base)) {}

  const DynamicTriangleCore& dyn() const { return dyn_; }
  const DeltaCsr& graph() const { return dyn_.graph(); }
  const Graph& shadow() const { return shadow_; }

  void Insert(VertexId u, VertexId v) {
    shadow_.AddEdge(u, v);
    dyn_.InsertEdge(u, v);
  }
  void Remove(VertexId u, VertexId v) {
    shadow_.RemoveEdge(u, v);
    dyn_.RemoveEdge(u, v);
  }
  void Toggle(VertexId u, VertexId v) {
    if (shadow_.HasEdge(u, v)) {
      Remove(u, v);
    } else {
      Insert(u, v);
    }
  }

  // Holds κ to `fresh`, a decomposition of the shadow.
  void ExpectMatches(const TriangleCoreResult& fresh,
                     const std::string& where) const {
    ASSERT_EQ(graph().NumEdges(), shadow_.NumEdges()) << where;
    shadow_.ForEachEdge([&](EdgeId e, const Edge& edge) {
      ASSERT_EQ(graph().FindEdge(edge.u, edge.v), e)
          << where << " edge (" << edge.u << "," << edge.v << ")";
      ASSERT_EQ(dyn_.kappa()[e], fresh.kappa[e])
          << where << " edge (" << edge.u << "," << edge.v << ")";
    });
  }
  void ExpectMatchesStatic(const std::string& where) const {
    ExpectMatches(ComputeTriangleCores(shadow_), where);
  }

 private:
  Graph shadow_;
  DynamicTriangleCore dyn_;
};

TEST(FuzzTest, LongMixedChurnWithPeriodicChecks) {
  Rng rng(31337);
  Shadowed s(PowerLawCluster(150, 3, 0.6, rng));
  for (int step = 1; step <= 400; ++step) {
    const DeltaCsr& g = s.graph();
    if (rng.NextBool(0.5)) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      if (u != v && !g.HasEdge(u, v)) s.Insert(u, v);
    } else if (g.NumEdges() > 0) {
      auto live = g.EdgeIds();
      const Edge victim = g.GetEdge(live[rng.NextBounded(live.size())]);
      s.Remove(victim.u, victim.v);
    }
    if (step % 50 == 0) s.ExpectMatchesStatic("periodic");
  }
  s.ExpectMatchesStatic("final");
}

TEST(FuzzTest, CliqueGrowthAndDecayCycles) {
  // Grow a clique vertex by vertex to K12, then tear it down edge by edge
  // — maximal multi-level promotion and demotion cascades.
  Shadowed s(Graph(12));
  for (VertexId v = 1; v < 12; ++v) {
    for (VertexId u = 0; u < v; ++u) s.Insert(u, v);
    s.ExpectMatchesStatic("growth");
  }
  EXPECT_EQ(s.dyn().KappaOf(s.graph().FindEdge(0, 1)), 10u);
  Rng rng(5);
  while (s.graph().NumEdges() > 0) {
    auto live = s.graph().EdgeIds();
    const Edge victim = s.graph().GetEdge(live[rng.NextBounded(live.size())]);
    s.Remove(victim.u, victim.v);
    if (s.graph().NumEdges() % 8 == 0) s.ExpectMatchesStatic("decay");
  }
}

TEST(FuzzTest, OverlappingCliquesChurn) {
  // Three cliques pairwise sharing 3 vertices — κ levels interact across
  // the overlaps, the hardest case for Rule 0 region growth.
  Graph g(15);
  PlantClique(g, {0, 1, 2, 3, 4, 5, 6});
  PlantClique(g, {4, 5, 6, 7, 8, 9, 10});
  PlantClique(g, {8, 9, 10, 11, 12, 13, 14});
  Shadowed s(g);
  Rng rng(77);
  for (int step = 0; step < 120; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(15));
    VertexId v = static_cast<VertexId>(rng.NextBounded(15));
    if (u == v) continue;
    s.Toggle(u, v);
    s.ExpectMatchesStatic("overlap");
  }
}

TEST(FuzzTest, BarbellBridgeChurn) {
  // Two dense lobes and a thin bridge; inserting/removing bridge edges
  // repeatedly must never leak promotions across the bridge.
  Graph g(16);
  PlantClique(g, {0, 1, 2, 3, 4, 5, 6});
  PlantClique(g, {9, 10, 11, 12, 13, 14, 15});
  Shadowed s(g);
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    // Randomly toggle bridge edges through the middle vertices 7, 8.
    VertexId mid = rng.NextBool(0.5) ? 7 : 8;
    VertexId far = static_cast<VertexId>(rng.NextBounded(16));
    if (far == mid) continue;
    s.Toggle(mid, far);
    s.ExpectMatchesStatic("barbell");
    // Lobe edges stay at κ = 5 throughout.
    EXPECT_GE(s.dyn().KappaOf(s.graph().FindEdge(0, 1)), 5u);
    EXPECT_GE(s.dyn().KappaOf(s.graph().FindEdge(9, 10)), 5u);
  }
}

TEST(FuzzTest, RebuildEquivalenceAfterHeavyChurn) {
  // After heavy churn, a DynamicTriangleCore constructed fresh from the
  // mutated graph matches the maintained one exactly.
  Rng rng(8);
  Graph base = PowerLawCluster(100, 3, 0.5, rng);
  DynamicTriangleCore dyn{DeltaCsr(base)};
  for (int i = 0; i < 300; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(100));
    VertexId v = static_cast<VertexId>(rng.NextBounded(100));
    if (u == v) continue;
    if (dyn.graph().HasEdge(u, v)) {
      dyn.RemoveEdge(u, v);
    } else {
      dyn.InsertEdge(u, v);
    }
  }
  DynamicTriangleCore rebuilt(dyn.graph());
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(dyn.kappa()[e], rebuilt.kappa()[e]);
  });
}

// --- Differential fuzz: storage modes × threads × entry point ---------

// Which overload recomputes the shadow: the AnalysisContext one at the
// parameterized thread count, or the Graph one (which freezes into its own
// context).
enum class Entry { kContext, kGraph };

class DifferentialFuzzTest
    : public ::testing::TestWithParam<
          std::tuple<TriangleStorageMode, int, Entry>> {};

TEST_P(DifferentialFuzzTest, SeededChurnAgainstAlgorithm1AndCertificate) {
  const auto [mode, threads, entry] = GetParam();
  // Seed folds in the parameters so each configuration walks a different
  // trajectory while staying reproducible.
  Rng rng(1000003 * (mode == TriangleStorageMode::kStoreTriangles ? 1 : 2) +
          static_cast<uint64_t>(threads) +
          (entry == Entry::kGraph ? 31 : 0));
  Shadowed s(PowerLawCluster(90, 3, 0.55, rng));

  constexpr int kSteps = 240;
  constexpr int kCheckEvery = 24;
  for (int step = 1; step <= kSteps; ++step) {
    const DeltaCsr& g = s.graph();
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (u == v) continue;
    s.Toggle(u, v);
    if (step % kCheckEvery != 0 && step != kSteps) continue;

    // Oracle 1: Algorithm-1 recompute of the shadow in the parameterized
    // storage mode (index or recompute) / thread count / entry point.
    AnalysisContext ctx(s.shadow(), threads);
    TriangleCoreResult fresh = entry == Entry::kGraph
                                   ? ComputeTriangleCores(s.shadow(), mode)
                                   : ComputeTriangleCores(ctx, mode);
    s.ExpectMatches(fresh, "step " + std::to_string(step));
    if (mode == TriangleStorageMode::kStoreTriangles) {
      ASSERT_EQ(ctx.TriangleIndex().NumEntries(), 3 * fresh.triangle_count);
    }
    // Oracle 2: the code-independent κ-certificate (soundness +
    // maximality by direct recount).
    verify::VerifyReport cert =
        verify::CheckKappaCertificate(s.graph(), s.dyn().kappa());
    ASSERT_TRUE(cert.AllPassed())
        << "step " << step << ": " << cert.FirstFailure()->name << " — "
        << cert.FirstFailure()->detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StorageModesThreadsAndEntry, DifferentialFuzzTest,
    ::testing::Combine(
        ::testing::Values(TriangleStorageMode::kStoreTriangles,
                          TriangleStorageMode::kRecomputeTriangles),
        ::testing::Values(1, 4),
        ::testing::Values(Entry::kContext, Entry::kGraph)),
    [](const ::testing::TestParamInfo<DifferentialFuzzTest::ParamType>&
           info) {
      std::string name =
          std::get<0>(info.param) == TriangleStorageMode::kStoreTriangles
              ? "index"
              : "recompute";
      name += "_t" + std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) == Entry::kGraph ? "_graph" : "_context";
      return name;
    });

// --- Threads axis: the parallel support pass against the serial oracle ---
//
// The support pass and the triangle index promise bit-identical output at
// any thread count. This driver churns a power-law graph with a planted
// 40-clique (so a few out-lists are long and the gallop regime engages)
// and periodically holds the N-thread supports to the serial pass and to
// the full-adjacency reference, and the full decomposition to the
// κ-certificate.

class ThreadsDifferentialFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadsDifferentialFuzzTest, SupportsAndKappaMatchSerialOracle) {
  const int threads = GetParam();
  Rng rng(2012 + static_cast<uint64_t>(threads));
  Graph base = PowerLawCluster(120, 3, 0.55, rng);
  PlantRandomClique(base, 40, rng);

  Graph g = base;
  constexpr int kSteps = 150;
  constexpr int kCheckEvery = 30;
  for (int step = 1; step <= kSteps; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (u == v) continue;
    if (g.HasEdge(u, v)) {
      g.RemoveEdge(u, v);
    } else {
      g.AddEdge(u, v);
    }
    if (step % kCheckEvery != 0 && step != kSteps) continue;

    CsrGraph csr = CsrGraph::Freeze(g);
    const std::vector<uint32_t> oracle =
        ComputeEdgeSupports(csr, /*threads=*/1);
    ASSERT_EQ(ComputeEdgeSupportsFullScan(csr), oracle) << "step " << step;
    const std::vector<uint32_t> got = ComputeEdgeSupports(csr, threads);
    ASSERT_EQ(got, oracle) << "step " << step << " threads " << threads;
    ASSERT_EQ(CountTriangles(csr, threads), CountTriangles(csr, 1))
        << "step " << step;

    // Full decomposition at this thread count: the index build and the
    // recompute peel's IntersectNeighbors must agree.
    AnalysisContext ctx(g, threads);
    TriangleCoreResult indexed = ComputeTriangleCores(ctx);
    TriangleCoreResult recomputed =
        ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
    ASSERT_EQ(indexed.kappa, recomputed.kappa) << "step " << step;
    verify::VerifyReport cert =
        verify::CheckKappaCertificate(ctx.csr(), indexed.kappa);
    ASSERT_TRUE(cert.AllPassed())
        << "step " << step << ": " << cert.FirstFailure()->name << " — "
        << cert.FirstFailure()->detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadsDifferentialFuzzTest,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "_threads";
                         });

// --- Batch axis: ApplyBatch vs an Algorithm-1 recompute, by endpoints ---
//
// Per-event and batched application share one insert routine and one
// removal pump, so the per-event maintainer is no independent reference.
// Each batch is held instead to a scratch recompute over a shadow Graph
// that applied the same events. Batched application coalesces to net
// effects, so when a batch contains a remove+reinsert of the same
// endpoints the edge keeps its old id where the shadow allocates a fresh
// one: κ is compared edge-for-edge *by endpoints* after every batch — and,
// after the final compaction, by id against a recompute on the frozen view
// and against the independent certificate. The maintained triangle total is
// held to the recompute's count after every batch, compactions included.

class BatchFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchFuzzTest, BatchedEqualsRecomputeByEndpoints) {
  const size_t batch_size = GetParam();
  Rng rng(500009 + batch_size);
  Graph base = PowerLawCluster(80, 3, 0.55, rng);

  // Event stream with deliberate churn: duplicate inserts, removes of
  // absent edges, and insert/remove flip-flops inside one batch, so the
  // coalescer actually elides work.
  Graph shadow = base;
  std::vector<EdgeEvent> events;
  for (int i = 0; i < 420; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(80));
    VertexId v = static_cast<VertexId>(rng.NextBounded(80));
    if (u == v) continue;
    const bool flip = rng.NextBool(0.15);  // immediate re-toggle
    if (shadow.HasEdge(u, v)) {
      events.push_back({EdgeEvent::Kind::kRemove, u, v});
      shadow.RemoveEdge(u, v);
      if (flip) {
        events.push_back({EdgeEvent::Kind::kInsert, u, v});
        shadow.AddEdge(u, v);
      }
    } else {
      events.push_back({EdgeEvent::Kind::kInsert, u, v});
      shadow.AddEdge(u, v);
      if (flip) {
        events.push_back({EdgeEvent::Kind::kRemove, u, v});
        shadow.RemoveEdge(u, v);
      }
    }
  }

  // Batched maintainer on the DeltaCsr overlay, compacting mid-stream to
  // cross epoch boundaries; the shadow replays the raw events.
  Graph reference = base;
  DynamicTriangleCore batched{DeltaCsr(base)};
  size_t batches = 0;
  for (size_t off = 0; off < events.size(); off += batch_size) {
    const size_t count = std::min(batch_size, events.size() - off);
    for (size_t i = off; i < off + count; ++i) {
      const EdgeEvent& ev = events[i];
      if (ev.kind == EdgeEvent::Kind::kInsert) {
        reference.AddEdge(ev.u, ev.v);
      } else {
        reference.RemoveEdge(ev.u, ev.v);
      }
    }
    batched.ApplyBatch(
        std::span<const EdgeEvent>(events.data() + off, count));
    ++batches;
    if (batches % 3 == 0) batched.Compact();

    ASSERT_EQ(reference.NumEdges(), batched.graph().NumEdges())
        << "batch " << batches;
    const TriangleCoreResult fresh = ComputeTriangleCores(reference);
    ASSERT_EQ(batched.TriangleCount(), fresh.triangle_count)
        << "batch " << batches;
    reference.ForEachEdge([&](EdgeId e, const Edge& edge) {
      EdgeId other = batched.graph().FindEdge(edge.u, edge.v);
      ASSERT_NE(other, kInvalidEdge)
          << "batch " << batches << " edge (" << edge.u << "," << edge.v
          << ") missing from batched view";
      ASSERT_EQ(fresh.kappa[e], batched.kappa()[other])
          << "batch " << batches << " edge (" << edge.u << "," << edge.v
          << ")";
    });
  }

  // Final compaction, then both oracles: Algorithm-1 scratch recompute on
  // the frozen base and the code-independent certificate.
  batched.Compact();
  TriangleCoreResult fresh = ComputeTriangleCores(batched.graph());
  ASSERT_EQ(batched.TriangleCount(), fresh.triangle_count);
  batched.graph().ForEachEdge([&](EdgeId e, const Edge& edge) {
    ASSERT_EQ(batched.kappa()[e], fresh.kappa[e])
        << "final edge (" << edge.u << "," << edge.v << ")";
  });
  verify::VerifyReport cert =
      verify::CheckKappaCertificate(batched.graph(), batched.kappa());
  ASSERT_TRUE(cert.AllPassed())
      << cert.FirstFailure()->name << " — " << cert.FirstFailure()->detail;
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchFuzzTest,
                         ::testing::Values(1, 3, 16, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "batch" + std::to_string(info.param);
                         });

// --- Ingest axis: chunked parallel parse + freeze vs the serial oracle ---
//
// The parallel ingest pipeline promises the exact edge sequence, EdgeIds,
// stats, and frozen CSR arrays of the serial stream reader at any thread
// count. This driver generates junk-injected edge-list text (malformed
// rows, duplicates, reversed rows, self-loops, comments, missing final
// newline) and holds both products of the chunked parse — the builder
// Graph and the direct edge-table freeze the CLI uses — to the serial
// path across a grid of thread counts.

class IngestFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(IngestFuzzTest, ChunkedParseAndFreezeMatchSerialOracle) {
  const int threads = GetParam();
  Rng rng(7700001 + static_cast<uint64_t>(threads) * 13);
  for (int round = 0; round < 6; ++round) {
    std::ostringstream text;
    const uint64_t n = 40 + rng.NextBounded(260);
    const uint64_t rows = 200 + rng.NextBounded(1800);
    for (uint64_t i = 0; i < rows; ++i) {
      const double roll = rng.NextDouble();
      if (roll < 0.03) {
        text << "# comment " << i << '\n';
      } else if (roll < 0.06) {
        text << "garbage " << i << '\n';
      } else if (roll < 0.08) {
        text << "-" << rng.NextBounded(n) << ' ' << rng.NextBounded(n) << '\n';
      } else if (roll < 0.11) {
        const uint64_t u = rng.NextBounded(n);
        text << u << ' ' << u << '\n';
      } else {
        text << rng.NextBounded(n) << ' ' << rng.NextBounded(n) << '\n';
      }
    }
    std::string buffer = text.str();
    if (rng.NextBool(0.5) && !buffer.empty()) buffer.pop_back();

    std::istringstream stream(buffer);
    EdgeListStats oracle_stats;
    auto oracle = ReadEdgeList(stream, &oracle_stats);
    ASSERT_TRUE(oracle.has_value());

    EdgeListStats stats;
    Graph parsed = ParseEdgeListBuffer(buffer, threads, &stats);
    ASSERT_EQ(stats, oracle_stats) << "round " << round;
    ASSERT_EQ(parsed.NumVertices(), oracle->NumVertices()) << "round " << round;
    ASSERT_EQ(parsed.NumEdges(), oracle->NumEdges()) << "round " << round;
    oracle->ForEachEdge([&](EdgeId e, const Edge& edge) {
      const Edge got = parsed.GetEdge(e);
      ASSERT_EQ(got.u, edge.u) << "round " << round << " edge " << e;
      ASSERT_EQ(got.v, edge.v) << "round " << round << " edge " << e;
    });

    // Freeze determinism on the parsed graph: parallel freeze arrays are
    // byte-identical to the serial freeze, and κ is identical
    // edge-for-edge.
    CsrGraph serial = CsrGraph::Freeze(*oracle, /*threads=*/1);
    CsrGraph parallel = CsrGraph::Freeze(parsed, threads);
    ASSERT_EQ(serial.RawOffsets(), parallel.RawOffsets()) << "round " << round;
    ASSERT_EQ(serial.RawEntries().size(), parallel.RawEntries().size());
    for (size_t i = 0; i < serial.RawEntries().size(); ++i) {
      ASSERT_EQ(serial.RawEntries()[i].vertex, parallel.RawEntries()[i].vertex)
          << "round " << round << " entry " << i;
      ASSERT_EQ(serial.RawEntries()[i].edge, parallel.RawEntries()[i].edge)
          << "round " << round << " entry " << i;
    }
    ASSERT_EQ(ComputeTriangleCores(serial).kappa,
              ComputeTriangleCores(parallel).kappa)
        << "round " << round;

    // The direct build (no builder Graph) is the oracle's freeze exactly:
    // raw arrays, every rank and every oriented out-list.
    EdgeListStats direct_stats;
    const CsrGraph direct = CsrGraph::FromEdgeTable(
        ParseEdgeTable(buffer, threads, &direct_stats), threads);
    ASSERT_EQ(direct_stats, oracle_stats) << "round " << round;
    ASSERT_EQ(direct.RawOffsets(), serial.RawOffsets()) << "round " << round;
    ASSERT_EQ(direct.RawEdges(), serial.RawEdges()) << "round " << round;
    ASSERT_EQ(direct.RawEntries().size(), serial.RawEntries().size());
    for (size_t i = 0; i < serial.RawEntries().size(); ++i) {
      ASSERT_EQ(direct.RawEntries()[i].vertex, serial.RawEntries()[i].vertex)
          << "round " << round << " entry " << i;
      ASSERT_EQ(direct.RawEntries()[i].edge, serial.RawEntries()[i].edge)
          << "round " << round << " entry " << i;
    }
    for (VertexId v = 0; v < serial.NumVertices(); ++v) {
      ASSERT_EQ(direct.Rank(v), serial.Rank(v)) << "round " << round;
      ASSERT_EQ(direct.OutDegree(v), serial.OutDegree(v)) << "round " << round;
      for (size_t i = 0; i < serial.OutDegree(v); ++i) {
        ASSERT_EQ(direct.OutNeighborsBegin(v)[i].vertex,
                  serial.OutNeighborsBegin(v)[i].vertex)
            << "round " << round << " vertex " << v;
        ASSERT_EQ(direct.OutNeighborsBegin(v)[i].edge,
                  serial.OutNeighborsBegin(v)[i].edge)
            << "round " << round << " vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, IngestFuzzTest, ::testing::Values(1, 2, 3, 8),
    [](const ::testing::TestParamInfo<int>& info) {
      return "t" + std::to_string(info.param);
    });

TEST(FuzzTest, ReplayOracleOverGeneratedEventLog) {
  // Random mixed event log driven through the verify-layer replay oracle:
  // each 10-event interval is one coalescing batch, certificate at every
  // checkpoint.
  Rng rng(60601);
  Graph base = PowerLawCluster(70, 3, 0.5, rng);
  std::vector<EdgeEvent> events;
  Graph shadow = base;  // tracks state so removals target live edges
  for (int i = 0; i < 80; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(70));
    VertexId v = static_cast<VertexId>(rng.NextBounded(70));
    if (u == v) continue;
    if (shadow.HasEdge(u, v)) {
      events.push_back({EdgeEvent::Kind::kRemove, u, v});
      shadow.RemoveEdge(u, v);
    } else {
      events.push_back({EdgeEvent::Kind::kInsert, u, v});
      shadow.AddEdge(u, v);
    }
  }
  verify::ReplayOptions options;
  options.check_every = 10;
  options.certificate_at_checkpoints = true;
  verify::VerifyReport report = verify::ReplayEventLog(
      std::make_shared<const CsrGraph>(base), events, options);
  EXPECT_TRUE(report.AllPassed())
      << report.FirstFailure()->name << ": " << report.FirstFailure()->detail;
}

}  // namespace
}  // namespace tkc
