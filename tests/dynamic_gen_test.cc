#include "tkc/gen/dynamic_gen.h"

#include <gtest/gtest.h>
#include "tkc/gen/generators.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

TEST(DynamicGenTest, ChurnCounts) {
  Rng rng(1);
  Graph g = GnmRandom(100, 400, rng);
  auto events = RandomChurn(g, 10, 15, rng);
  EXPECT_EQ(events.size(), 25u);
  size_t removals = 0;
  for (const auto& ev : events) {
    removals += (ev.kind == EdgeEvent::Kind::kRemove);
  }
  EXPECT_EQ(removals, 10u);
}

TEST(DynamicGenTest, ChurnEventsAreValidInOrder) {
  Rng rng(2);
  Graph g = GnmRandom(80, 300, rng);
  auto events = RandomChurn(g, 25, 25, rng);
  Graph work = g;
  for (const auto& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      ASSERT_FALSE(work.HasEdge(ev.u, ev.v));
      work.AddEdge(ev.u, ev.v);
    } else {
      ASSERT_TRUE(work.HasEdge(ev.u, ev.v));
      work.RemoveEdge(ev.u, ev.v);
    }
  }
  EXPECT_EQ(work.NumEdges(), g.NumEdges());  // equal adds and removes
}

TEST(DynamicGenTest, ApplyEventsMatchesManualReplay) {
  Rng rng(3);
  Graph g = GnmRandom(50, 150, rng);
  auto events = RandomChurn(g, 10, 10, rng);
  Graph applied = ApplyEvents(g, events);
  EXPECT_EQ(applied.NumEdges(), g.NumEdges());
  // Removed pairs absent, inserted pairs present.
  for (const auto& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      EXPECT_TRUE(applied.HasEdge(ev.u, ev.v));
    } else {
      EXPECT_FALSE(applied.HasEdge(ev.u, ev.v));
    }
  }
}

TEST(DynamicGenTest, ChurnZeroIsEmpty) {
  Rng rng(4);
  Graph g = GnmRandom(20, 40, rng);
  EXPECT_TRUE(RandomChurn(g, 0, 0, rng).empty());
}

TEST(DynamicGenTest, GrowSnapshotOnlyAdds) {
  Rng rng(5);
  Graph base = PowerLawCluster(150, 3, 0.7, rng);
  SnapshotPair pair = GrowSnapshot(base, 30, 5, rng);
  EXPECT_EQ(pair.old_graph.NumEdges(), base.NumEdges());
  EXPECT_GE(pair.new_graph.NumEdges(), base.NumEdges());
  EXPECT_EQ(pair.new_graph.NumEdges(),
            base.NumEdges() + pair.added.size());
  // Every old edge survives.
  base.ForEachEdge([&](EdgeId, const Edge& e) {
    EXPECT_TRUE(pair.new_graph.HasEdge(e.u, e.v));
  });
  // Newcomers exist beyond the old vertex range.
  EXPECT_EQ(pair.new_graph.NumVertices(), base.NumVertices() + 5);
  for (const auto& ev : pair.added) {
    EXPECT_EQ(ev.kind, EdgeEvent::Kind::kInsert);
    EXPECT_TRUE(pair.new_graph.HasEdge(ev.u, ev.v));
  }
}

TEST(DynamicGenTest, GrowSnapshotNewcomersLandOnTriangles) {
  Rng rng(6);
  Graph base = CompleteGraph(6);
  SnapshotPair pair = GrowSnapshot(base, 0, 3, rng);
  // Each newcomer attaches to a full triangle, creating κ>=1 edges.
  for (VertexId v = 6; v < 9; ++v) {
    EXPECT_GE(pair.new_graph.Degree(v), 3u);
  }
  EXPECT_GT(CountTriangles(CsrGraph(pair.new_graph)),
            CountTriangles(CsrGraph(base)));
}

}  // namespace
}  // namespace tkc
