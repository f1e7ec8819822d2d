#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/engine/engine.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/edge_event.h"
#include "tkc/obs/json.h"
#include "tkc/obs/log.h"
#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"

namespace tkc::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(1.5);
  g.Set(-3.0);
  EXPECT_DOUBLE_EQ(g.Value(), -3.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  for (uint64_t v : {1u, 2u, 4u, 8u, 100u}) h.Observe(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 115u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 23.0);
  // Quantiles are bucket upper bounds: exact up to 2x resolution.
  EXPECT_GE(h.Quantile(0.5), 4u);
  EXPECT_LE(h.Quantile(0.5), 8u);
  EXPECT_GE(h.Quantile(1.0), 100u);
}

TEST(HistogramTest, ZeroAndLargeSamples) {
  Histogram h;
  h.Observe(0);
  h.Observe(UINT64_MAX);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), UINT64_MAX);
}

TEST(HistogramTest, ObserveSecondsConvertsToNanos) {
  Histogram h;
  h.ObserveSeconds(1.5e-6);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Sum(), 1500u);
  h.ObserveSeconds(-2.0);  // clamped to zero, never wraps
  EXPECT_EQ(h.Min(), 0u);
}

TEST(HistogramTest, ToJsonHasSummaryAndBuckets) {
  Histogram h;
  h.Observe(7);
  h.Observe(9);
  JsonValue j = h.ToJson();
  ASSERT_TRUE(j.IsObject());
  EXPECT_EQ(j.Find("count")->Number(), 2.0);
  EXPECT_EQ(j.Find("sum")->Number(), 16.0);
  EXPECT_EQ(j.Find("min")->Number(), 7.0);
  EXPECT_EQ(j.Find("max")->Number(), 9.0);
  ASSERT_NE(j.Find("buckets"), nullptr);
  // 7 lands in (4,8], 9 in (8,16]: exactly two non-empty buckets.
  EXPECT_EQ(j.Find("buckets")->Items().size(), 2u);
}

TEST(MetricsRegistryTest, FindOrCreateAndHandleStability) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.hits");
  Counter& b = reg.GetCounter("x.hits");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  reg.GetGauge("x.level").Set(2.5);
  reg.GetHistogram("x.lat").Observe(10);

  reg.Reset();  // zeroes values but the handle must stay usable
  EXPECT_EQ(a.Value(), 0u);
  a.Add(1);
  EXPECT_EQ(reg.GetCounter("x.hits").Value(), 1u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("x.level").Value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("x.lat").Count(), 0u);
}

TEST(MetricsRegistryTest, ToJsonSortedAndTyped) {
  MetricsRegistry reg;
  reg.GetCounter("b").Add(2);
  reg.GetCounter("a").Add(1);
  reg.GetGauge("g").Set(0.5);
  reg.GetHistogram("h").Observe(4);
  JsonValue j = reg.ToJson();
  const JsonValue* counters = j.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->Members().size(), 2u);
  EXPECT_EQ(counters->Members()[0].first, "a");  // sorted for stable output
  EXPECT_EQ(counters->Members()[1].first, "b");
  EXPECT_EQ(j.FindPath("gauges.g")->Number(), 0.5);
  EXPECT_EQ(j.FindPath("histograms.h.count")->Number(), 1.0);
}

// Runs `body` in a fresh session on the global recorder and returns the
// folded phase tree; `trace` receives the Chrome-trace export.
template <typename Fn>
JsonValue FoldSession(Fn&& body, JsonValue* trace = nullptr,
                      size_t bytes_per_thread =
                          TimelineRecorder::kDefaultBytesPerThread) {
  TimelineRecorder& recorder = TimelineRecorder::Global();
  recorder.Start(bytes_per_thread);
  body();
  recorder.Stop();
  JsonValue tree = recorder.PhaseTree();
  if (trace != nullptr) *trace = recorder.ToJson();
  recorder.Reset();
  return tree;
}

// The "X" slices of a Chrome-trace export.
std::vector<const JsonValue*> Slices(const JsonValue& trace) {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : trace.Find("traceEvents")->Items()) {
    if (e.Find("ph")->Str() == "X") out.push_back(&e);
  }
  return out;
}

TEST(SpanFoldTest, NestingFollowsTheParentPath) {
  JsonValue tree = FoldSession([] {
    for (int i = 0; i < 3; ++i) {
      TKC_SPAN("outer");
      { TKC_SPAN("inner"); }
    }
    { TKC_SPAN("inner"); }  // same name, other path: its own node
  });
  ASSERT_EQ(tree.Items().size(), 2u);
  const JsonValue& outer = tree.Items()[0];
  EXPECT_EQ(outer.Find("name")->Str(), "outer");
  EXPECT_EQ(outer.Find("calls")->Number(), 3.0);
  ASSERT_NE(outer.Find("children"), nullptr);
  ASSERT_EQ(outer.Find("children")->Items().size(), 1u);
  const JsonValue& inner = outer.Find("children")->Items()[0];
  EXPECT_EQ(inner.Find("name")->Str(), "inner");
  EXPECT_EQ(inner.Find("calls")->Number(), 3.0);
  EXPECT_LE(inner.Find("seconds")->Number(), outer.Find("seconds")->Number());
  const JsonValue& top_inner = tree.Items()[1];
  EXPECT_EQ(top_inner.Find("name")->Str(), "inner");
  EXPECT_EQ(top_inner.Find("calls")->Number(), 1.0);
  EXPECT_EQ(top_inner.Find("children"), nullptr);
  EXPECT_EQ(top_inner.Find("counters"), nullptr);
}

TEST(SpanFoldTest, SiblingsAggregateAndSecondsSumTheSlices) {
  JsonValue trace;
  JsonValue tree = FoldSession(
      [] {
        { TKC_SPAN("a"); }
        { TKC_SPAN("b"); }
        { TKC_SPAN("a"); }
      },
      &trace);
  ASSERT_EQ(tree.Items().size(), 2u);
  EXPECT_EQ(tree.Items()[0].Find("name")->Str(), "a");
  EXPECT_EQ(tree.Items()[0].Find("calls")->Number(), 2.0);
  EXPECT_EQ(tree.Items()[1].Find("name")->Str(), "b");
  EXPECT_EQ(tree.Items()[1].Find("calls")->Number(), 1.0);
  double a_us = 0.0;
  for (const JsonValue* slice : Slices(trace)) {
    if (slice->Find("name")->Str() == "a") a_us += slice->Find("dur")->Number();
  }
  EXPECT_NEAR(tree.Items()[0].Find("seconds")->Number(), a_us / 1e6, 1e-9);
}

TEST(SpanFoldTest, CountersSumWithinASliceAndAcrossCalls) {
  JsonValue trace;
  JsonValue tree = FoldSession(
      [] {
        TKC_SPAN_COUNTER("nowhere", 1);  // no span open: dropped
        for (int i = 0; i < 3; ++i) {
          TKC_SPAN("phase");
          TKC_SPAN_COUNTER("work", 5);
          TKC_SPAN_COUNTER("work", 5);
          TKC_SPAN_COUNTER("support_relaxations", 1);
          {
            TKC_SPAN("child");
            TKC_SPAN_COUNTER("inner_only", 2);
          }
        }
      },
      &trace);
  for (const JsonValue* slice : Slices(trace)) {
    if (slice->Find("name")->Str() != "phase") continue;
    EXPECT_EQ(slice->FindPath("args")->Find("work")->Number(), 10.0);
    ASSERT_NE(slice->FindPath("args")->Find("support_relaxations"), nullptr);
  }
  ASSERT_EQ(tree.Items().size(), 1u);
  const JsonValue& phase = tree.Items()[0];
  const JsonValue* counters = phase.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->Members().size(), 2u);
  EXPECT_EQ(counters->Find("work")->Number(), 30.0);
  EXPECT_EQ(counters->Find("support_relaxations")->Number(), 3.0);
  const JsonValue& child = phase.Find("children")->Items()[0];
  EXPECT_EQ(child.FindPath("counters")->Find("inner_only")->Number(), 6.0);
}

TEST(SpanFoldTest, OverflowDropsOnlyLaterSubtrees) {
  JsonValue trace;
  JsonValue tree = FoldSession(
      [] {
        TKC_SPAN("a");
        {
          TKC_SPAN("b");
          {
            TKC_SPAN("c");
            TKC_SPAN_COUNTER("kept", 1);
            { TKC_SPAN("d"); }  // the buffer is full from here on
          }
          { TKC_SPAN("e"); }
        }
      },
      &trace, /*bytes_per_thread=*/3 * sizeof(TimelineEvent));
  EXPECT_EQ(trace.Find("dropped_events")->Number(), 2.0);
  // a > b > c survive whole, with no orphaned slice under a missing parent.
  ASSERT_EQ(tree.Items().size(), 1u);
  const JsonValue* node = &tree.Items()[0];
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->Find("name")->Str(), name);
    EXPECT_EQ(node->Find("calls")->Number(), 1.0);
    const JsonValue* children = node->Find("children");
    if (std::string(name) == "c") {
      EXPECT_EQ(children, nullptr);
      EXPECT_EQ(node->FindPath("counters")->Find("kept")->Number(), 1.0);
    } else {
      ASSERT_NE(children, nullptr);
      ASSERT_EQ(children->Items().size(), 1u);
      node = &children->Items()[0];
    }
  }
}

TEST(SpanFoldTest, WorkerSpansLandOnTheirOwnTracks) {
  constexpr int kThreads = 4;
  constexpr size_t kItems = 64;
  JsonValue trace;
  JsonValue tree = FoldSession(
      [] {
        ParallelFor(kThreads, kItems, [](int, size_t begin, size_t end) {
          TKC_SPAN("work.item");
          TKC_SPAN_COUNTER("items", end - begin);
        });
      },
      &trace);
  // One work.item slice per track, each carrying its own chunk's count.
  std::vector<int> per_tid(kThreads, 0);
  double items = 0.0;
  for (const JsonValue* slice : Slices(trace)) {
    if (slice->Find("name")->Str() != "work.item") continue;
    const auto tid = static_cast<size_t>(slice->Find("tid")->Number());
    ASSERT_LT(tid, per_tid.size());
    ++per_tid[tid];
    items += slice->FindPath("args")->Find("items")->Number();
  }
  EXPECT_EQ(per_tid, std::vector<int>(kThreads, 1));
  EXPECT_EQ(items, static_cast<double>(kItems));
  // The tree folds the main track only: worker 0's chunk.
  ASSERT_EQ(tree.Items().size(), 1u);
  const JsonValue& chunk = tree.Items()[0];
  EXPECT_EQ(chunk.Find("name")->Str(), "parallel_for.chunk");
  const JsonValue& item = chunk.Find("children")->Items()[0];
  EXPECT_EQ(item.Find("name")->Str(), "work.item");
  EXPECT_EQ(item.FindPath("counters")->Find("items")->Number(),
            static_cast<double>(kItems / kThreads));
}

TEST(SpanFoldTest, SerialParallelForOpensTheSameChunkSpan) {
  for (int threads : {1, 4}) {
    JsonValue trace;
    JsonValue tree = FoldSession(
        [threads] { ParallelFor(threads, 8, [](int, size_t, size_t) {}); },
        &trace);
    ASSERT_EQ(tree.Items().size(), 1u) << threads;
    EXPECT_EQ(tree.Items()[0].Find("name")->Str(), "parallel_for.chunk");
    // worker/begin/end are labels: on the timeline, not in the tree.
    EXPECT_EQ(tree.Items()[0].Find("counters"), nullptr) << threads;
    const JsonValue* args = Slices(trace)[0]->Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->Members().size(), 3u) << threads;
  }
}

TEST(SpanFoldTest, LabelsStayOnTheTimelineAndAmountsSum) {
  JsonValue trace;
  JsonValue tree = FoldSession(
      [] {
        for (uint64_t level : {2, 5}) {
          TimelineScope scope("peel.level");
          scope.AddLabel("level", level);
          scope.AddLabel("level", level);  // a label overwrites
          scope.AddArg("edges", 10);
          scope.AddArg("edges", 1);  // an amount sums
        }
      },
      &trace);
  ASSERT_EQ(tree.Items().size(), 1u);
  const JsonValue* counters = tree.Items()[0].Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Members().size(), 1u);
  EXPECT_EQ(counters->Find("edges")->Number(), 22.0);
  const std::vector<const JsonValue*> slices = Slices(trace);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0]->FindPath("args.level")->Number(), 2.0);
  EXPECT_EQ(slices[1]->FindPath("args.level")->Number(), 5.0);
  EXPECT_EQ(slices[1]->FindPath("args.edges")->Number(), 11.0);
}

TEST(SpanFoldTest, TracksGrowPastOneBlockWithoutMovingOpenSlots) {
  constexpr size_t kInner = 3 * TimelineRecorder::kBlockEvents + 5;
  JsonValue trace;
  JsonValue tree = FoldSession([] {
    TKC_SPAN("outer");
    for (size_t i = 0; i < kInner; ++i) {
      TKC_SPAN("inner");
    }
    // The outer slot was handed out before three more blocks were added.
    TKC_SPAN_COUNTER("after", 1);
  }, &trace);
  EXPECT_EQ(trace.Find("dropped_events")->Number(), 0.0);
  ASSERT_EQ(tree.Items().size(), 1u);
  const JsonValue& outer = tree.Items()[0];
  EXPECT_EQ(outer.FindPath("counters")->Find("after")->Number(), 1.0);
  const JsonValue& inner = outer.Find("children")->Items()[0];
  EXPECT_EQ(inner.Find("calls")->Number(), static_cast<double>(kInner));
}

// Every (path, counter key) of a phase tree, as "a/b:key".
void CollectCounterKeys(const JsonValue& node, const std::string& prefix,
                        std::set<std::string>* keys) {
  const std::string path = prefix + node.Find("name")->Str();
  if (const JsonValue* counters = node.Find("counters")) {
    for (const auto& [key, value] : counters->Members()) {
      keys->insert(path + ":" + key);
    }
  }
  if (const JsonValue* children = node.Find("children")) {
    for (const JsonValue& child : children->Items()) {
      CollectCounterKeys(child, path + "/", keys);
    }
  }
}

TEST(SpanFoldTest, ReplayTreeSumsAmountsOnly) {
  Rng rng(11);
  const Graph base = PowerLawCluster(300, 4, 0.5, rng);
  std::vector<EdgeEvent> events;
  base.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (e % 7 == 0) events.push_back({EdgeEvent::Kind::kRemove, edge.u,
                                      edge.v});
  });
  for (VertexId v = 1; v < 40; ++v) {
    events.push_back({EdgeEvent::Kind::kInsert, 0, v});
  }
  JsonValue trace;
  JsonValue tree = FoldSession(
      [&] {
        engine::EngineOptions options;
        options.threads = 4;
        engine::TkcEngine engine(base, options);
        engine.ApplyBatch(events);
        engine.Snapshot().context->Supports();
      },
      &trace);
  std::set<std::string> keys;
  for (const JsonValue& top : tree.Items()) CollectCounterKeys(top, "", &keys);
  bool saw_level = false;
  bool saw_edges = false;
  for (const std::string& key : keys) {
    for (const char* label : {":worker", ":begin", ":end", ":level"}) {
      EXPECT_EQ(key.find(label), std::string::npos) << key;
    }
    saw_level = saw_level || key.find("peel.level") != std::string::npos;
    saw_edges = saw_edges || key.ends_with("peel.level:edges");
  }
  EXPECT_TRUE(saw_level && saw_edges);
  // The timeline keeps the labels.
  bool chunk_labels = false;
  bool level_label = false;
  for (const JsonValue* slice : Slices(trace)) {
    const std::string& name = slice->Find("name")->Str();
    if (name == "parallel_for.chunk") {
      chunk_labels = chunk_labels || (slice->FindPath("args.worker") &&
                                      slice->FindPath("args.begin") &&
                                      slice->FindPath("args.end"));
    }
    if (name == "peel.level") {
      level_label = level_label || slice->FindPath("args.level") != nullptr;
    }
  }
  EXPECT_TRUE(chunk_labels);
  EXPECT_TRUE(level_label);
}

TEST(LogTest, ParseLogLevel) {
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("WARN"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("verbose"), std::nullopt);
}

TEST(LogTest, LevelFiltering) {
  std::ostringstream out;
  Logger log(&out, LogLevel::kWarn);
  log.Debug("skipped");
  log.Info("skipped.too");
  log.Warn("kept");
  log.Error("kept.too");
  std::string text = out.str();
  EXPECT_EQ(text.find("skipped"), std::string::npos);
  EXPECT_NE(text.find("level=warn event=kept"), std::string::npos);
  EXPECT_NE(text.find("level=error event=kept.too"), std::string::npos);
}

TEST(LogTest, FieldFormattingAndQuoting) {
  std::ostringstream out;
  Logger log(&out, LogLevel::kDebug);
  log.Info("evt", {{"n", 42}, {"ok", true}, {"ratio", 0.5},
                   {"path", "a b.txt"}, {"plain", "simple"}});
  std::string line = out.str();
  EXPECT_NE(line.find("n=42"), std::string::npos);
  EXPECT_NE(line.find("ok=true"), std::string::npos);
  EXPECT_NE(line.find("ratio=0.5"), std::string::npos);
  EXPECT_NE(line.find("path=\"a b.txt\""), std::string::npos);
  EXPECT_NE(line.find("plain=simple"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(LogTest, NullSinkDropsEverything) {
  Logger log(nullptr, LogLevel::kDebug);
  EXPECT_FALSE(log.ShouldLog(LogLevel::kError));
  log.Error("nowhere");  // must not crash
}

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(uint64_t{1} << 40).Dump(), "1099511627776");
  EXPECT_EQ(JsonValue(0.5).Dump(), "0.5");
  EXPECT_EQ(JsonValue("hi \"there\"\n").Dump(), "\"hi \\\"there\\\"\\n\"");
}

TEST(JsonTest, ObjectOrderPreserved) {
  JsonValue obj = JsonValue::Object()
                      .Set("zebra", 1)
                      .Set("apple", 2)
                      .Set("mango", JsonValue::Array().Push(3).Push("x"));
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"apple\":2,\"mango\":[3,\"x\"]}");
  EXPECT_EQ(obj.Find("apple")->Number(), 2.0);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(JsonTest, FindPath) {
  JsonValue obj = JsonValue::Object().Set(
      "a", JsonValue::Object().Set("b", JsonValue::Object().Set("c", 7)));
  ASSERT_NE(obj.FindPath("a.b.c"), nullptr);
  EXPECT_EQ(obj.FindPath("a.b.c")->Number(), 7.0);
  EXPECT_EQ(obj.FindPath("a.x.c"), nullptr);
}

TEST(JsonTest, ParseRoundTrip) {
  JsonValue obj =
      JsonValue::Object()
          .Set("name", "peel")
          .Set("count", 12345678901234LL)
          .Set("frac", 0.25)
          .Set("flag", false)
          .Set("none", JsonValue())
          .Set("rows", JsonValue::Array()
                           .Push(JsonValue::Object().Set("k", "v a l"))
                           .Push(-3));
  for (int indent : {-1, 2}) {
    std::string text = obj.Dump(indent);
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->Dump(indent), text);
  }
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("'single'").has_value());
  EXPECT_FALSE(JsonValue::Parse("NaN").has_value());
}

TEST(JsonTest, ParseEscapes) {
  auto parsed = JsonValue::Parse("\"a\\u00e9b\\tc\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Str(),
            "a\xc3\xa9"
            "b\tc");
}

TEST(JsonTest, RegistryExportRoundTrips) {
  MetricsRegistry reg;
  reg.GetCounter("triangle.triangles_found").Add(347);
  reg.GetGauge("core.peel.max_kappa").Set(2);
  reg.GetHistogram("dyn.insert.latency_ns").Observe(1000);
  std::string text = reg.ToJson().Dump(2);
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->FindPath("counters.triangle.triangles_found"), nullptr);
  // Dotted metric names are single keys, not nested paths.
  EXPECT_EQ(parsed->Find("counters")
                ->Find("triangle.triangles_found")
                ->Number(),
            347.0);
}

TEST(HistogramTest, ToJsonHasQuantiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Observe(v);
  JsonValue j = h.ToJson();
  ASSERT_NE(j.Find("p50"), nullptr);
  ASSERT_NE(j.Find("p90"), nullptr);
  ASSERT_NE(j.Find("p99"), nullptr);
  // Log2 buckets: quantiles are bucket upper bounds, so they are ordered
  // and within 2x of the exact rank statistic.
  EXPECT_LE(j.Find("p50")->Number(), j.Find("p90")->Number());
  EXPECT_LE(j.Find("p90")->Number(), j.Find("p99")->Number());
  EXPECT_GE(j.Find("p90")->Number(), 90.0);
  EXPECT_LE(j.Find("p90")->Number(), 128.0);
}

TEST(LogTest, TimestampsOffByDefault) {
  std::ostringstream sink;
  Logger logger(&sink, LogLevel::kInfo);
  logger.Info("plain.event");
  EXPECT_EQ(sink.str().rfind("level=info", 0), 0u);
}

TEST(LogTest, TimestampPrefixesLine) {
  std::ostringstream sink;
  Logger logger(&sink, LogLevel::kInfo);
  logger.SetTimestamps(true);
  logger.Info("stamped.event", {{"k", 1}});
  std::string line = sink.str();
  EXPECT_EQ(line.rfind("ts=", 0), 0u);
  // The rest of the line keeps the untimestamped format, so substring
  // assertions in older tests (and log scrapers) still match.
  EXPECT_NE(line.find(" level=info event=stamped.event k=1"),
            std::string::npos);
  logger.SetTimestamps(false);
  sink.str("");
  logger.Info("plain.again");
  EXPECT_EQ(sink.str().rfind("level=info", 0), 0u);
}

TEST(TimelineTest, DisabledRecorderRecordsNothing) {
  TimelineRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.NumTracks(), 0u);
  EXPECT_EQ(recorder.NumEvents(), 0u);
  EXPECT_TRUE(recorder.PhaseTree().Items().empty());
}

TEST(TimelineTest, RecordsCompleteEventsWithArgs) {
  JsonValue doc;
  FoldSession(
      [] {
        TimelineScope scope("peel.round");
        scope.AddArg("level", 3);
        scope.AddArg("round", 7);
      },
      &doc);
  EXPECT_EQ(doc.Find("schema")->Str(), "tkc.trace.v1");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // One thread_name metadata record plus the slice itself.
  ASSERT_EQ(events->Items().size(), 2u);
  const JsonValue& slice = events->Items()[1];
  EXPECT_EQ(slice.Find("ph")->Str(), "X");
  EXPECT_EQ(slice.Find("name")->Str(), "peel.round");
  EXPECT_GE(slice.Find("ts")->Number(), 0.0);
  EXPECT_GE(slice.Find("dur")->Number(), 0.0);
  EXPECT_EQ(slice.FindPath("args.level")->Number(), 3.0);
  EXPECT_EQ(slice.FindPath("args.round")->Number(), 7.0);
  EXPECT_EQ(TimelineRecorder::Global().NumEvents(), 0u);  // after Reset
}

TEST(TimelineTest, OverflowCountsDropsInsteadOfGrowing) {
  TimelineRecorder& recorder = TimelineRecorder::Global();
  recorder.Start(/*bytes_per_thread=*/4 * sizeof(TimelineEvent) + 1);
  for (int i = 0; i < 10; ++i) {
    TKC_SPAN("e");
  }
  recorder.Stop();
  EXPECT_EQ(recorder.NumEvents(), 4u);
  EXPECT_EQ(recorder.DroppedEvents(), 6u);
  JsonValue doc = recorder.ToJson();
  EXPECT_EQ(doc.Find("dropped_events")->Number(), 6.0);
  EXPECT_EQ(doc.FindPath("tracks")->Items()[0].Find("dropped")->Number(),
            6.0);
  recorder.Reset();
}

TEST(TimelineTest, ScopeIsNoOpWhileGlobalRecorderIdle) {
  TimelineRecorder& recorder = TimelineRecorder::Global();
  recorder.Reset();
  {
    TimelineScope scope("idle");
    scope.AddArg("k", 1);
  }
  EXPECT_EQ(recorder.NumEvents(), 0u);
}

// Track layout must be reproducible run-to-run: same worker-thread tracks,
// same deterministic tids, same per-track event counts. (Event *timings*
// vary; structure must not.)
TEST(TimelineTest, ParallelForTracksAreDeterministicAcrossRuns) {
  constexpr int kThreads = 4;
  constexpr size_t kItems = 64;
  auto run_once = [&] {
    TimelineRecorder& recorder = TimelineRecorder::Global();
    recorder.Start();
    ParallelFor(kThreads, kItems, [](int, size_t begin, size_t end) {
      volatile uint64_t sink = 0;
      for (size_t i = begin; i < end; ++i) sink = sink + i;
    });
    recorder.Stop();
    // (track name, event count) in exported tid order.
    std::vector<std::pair<std::string, double>> layout;
    JsonValue doc = recorder.ToJson();
    for (const JsonValue& t : doc.Find("tracks")->Items()) {
      layout.emplace_back(t.Find("name")->Str(),
                          t.Find("events")->Number());
    }
    recorder.Reset();
    return layout;
  };

  auto first = run_once();
  ASSERT_EQ(first.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(first[0].first, "main");
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(first[static_cast<size_t>(w)].first,
              "pool.worker-" + std::to_string(w));
    // One parallel_for.chunk slice per worker.
    EXPECT_EQ(first[static_cast<size_t>(w)].second, 1.0);
  }
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(run_once(), first) << "run " << rep;
  }
}

TEST(MemTest, SnapshotReportsRss) {
  MemorySnapshot snap = ReadMemorySnapshot();
#if defined(__linux__)
  ASSERT_TRUE(snap.available);
  EXPECT_GT(snap.current_rss_bytes, 0u);
  EXPECT_GE(snap.peak_rss_bytes, snap.current_rss_bytes);
#else
  if (!snap.available) GTEST_SKIP() << "no RSS source on this platform";
#endif
}

TEST(MemTest, ScopedMemSpanPublishesGaugesAndSpanCounters) {
  MemorySnapshot probe = ReadMemorySnapshot();
  if (!probe.available) GTEST_SKIP() << "no RSS source on this platform";
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  JsonValue tree = FoldSession([] {
    TKC_SPAN_MEM("phase");
    // Some visible allocation so the phase is not trivially empty.
    std::vector<uint64_t> ballast(1 << 16, 42);
    EXPECT_GT(ballast[123], 0u);
  });
  EXPECT_GT(registry.GetGauge("mem.current_rss_bytes").Value(), 0.0);
  EXPECT_GT(registry.GetGauge("mem.peak_rss_bytes").Value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("mem.phase.rss_growth_bytes").Count(), 1u);
  ASSERT_EQ(tree.Items().size(), 1u);
  EXPECT_EQ(tree.Items()[0].Find("name")->Str(), "phase");
  EXPECT_GT(tree.Items()[0].FindPath("counters")->Find("rss_peak_bytes")
                ->Number(),
            0.0);
}

TEST(MemTest, IdleMemSpanSamplesNothing) {
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  TimelineRecorder::Global().Reset();
  { TKC_SPAN_MEM("idle"); }
  EXPECT_EQ(registry.GetHistogram("mem.phase.rss_growth_bytes").Count(), 0u);
  EXPECT_EQ(registry.GetGauge("mem.peak_rss_bytes").Value(), 0.0);
}

// Arg keys up to the longest one the library emits survive whole into the
// trace artifact (a 16-byte key buffer used to cut rss_before_bytes).
TEST(MemTest, TraceArtifactCarriesFullArgKeys) {
  if (!ReadMemorySnapshot().available) {
    GTEST_SKIP() << "no RSS source on this platform";
  }
  TimelineRecorder::Global().Start();
  { TKC_SPAN_MEM("phase"); }
  const std::string path = ::testing::TempDir() + "obs_mem_trace.json";
  ASSERT_TRUE(WriteTraceArtifact(path, "command", "test", 0));
  TimelineRecorder::Global().Reset();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = JsonValue::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* args = nullptr;
  for (const JsonValue& e : doc->Find("traceEvents")->Items()) {
    if (e.Find("name")->Str() == "phase") args = e.Find("args");
  }
  ASSERT_NE(args, nullptr);
  EXPECT_NE(args->Find("rss_before_bytes"), nullptr);
  EXPECT_NE(args->Find("rss_after_bytes"), nullptr);
  EXPECT_NE(args->Find("rss_peak_bytes"), nullptr);
}

}  // namespace
}  // namespace tkc::obs
