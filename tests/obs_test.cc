#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/obs/json.h"
#include "tkc/obs/log.h"
#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/obs/trace.h"
#include "tkc/util/parallel.h"

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

TEST(PhaseTracerTest, NestedSpansAggregate) {
  PhaseTracer tracer;
  for (int i = 0; i < 3; ++i) {
    SpanNode* outer = tracer.Enter("outer");
    SpanNode* inner = tracer.Enter("inner");
    tracer.AddCounter("work", 5);
    tracer.Exit(inner, 0.25);
    tracer.Exit(outer, 1.0);
  }
  const SpanNode* outer = tracer.root().FindChild("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  EXPECT_DOUBLE_EQ(outer->seconds, 3.0);
  const SpanNode* inner = outer->FindChild("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 3u);
  EXPECT_DOUBLE_EQ(inner->seconds, 0.75);
  ASSERT_EQ(inner->counters.size(), 1u);
  EXPECT_EQ(inner->counters[0].first, "work");
  EXPECT_EQ(inner->counters[0].second, 15u);
}

TEST(PhaseTracerTest, SiblingSpansStaySeparate) {
  PhaseTracer tracer;
  SpanNode* a = tracer.Enter("a");
  tracer.Exit(a, 0.1);
  SpanNode* b = tracer.Enter("b");
  tracer.Exit(b, 0.2);
  EXPECT_EQ(tracer.root().children.size(), 2u);
  JsonValue j = tracer.ToJson();
  ASSERT_TRUE(j.IsArray());
  ASSERT_EQ(j.Items().size(), 2u);
  EXPECT_EQ(j.Items()[0].Find("name")->Str(), "a");
  EXPECT_EQ(j.Items()[1].Find("name")->Str(), "b");
}

TEST(PhaseTracerTest, DisabledTracerIsInert) {
  PhaseTracer tracer;
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.Enter("x"), nullptr);
  tracer.AddCounter("y", 1);  // must not crash or record
  EXPECT_TRUE(tracer.root().children.empty());
  EXPECT_TRUE(tracer.root().counters.empty());
}

TEST(PhaseTracerTest, ResetDropsTree) {
  PhaseTracer tracer;
  SpanNode* a = tracer.Enter("a");
  tracer.Exit(a, 0.1);
  tracer.Reset();
  EXPECT_TRUE(tracer.root().children.empty());
  SpanNode* b = tracer.Enter("b");
  tracer.Exit(b, 0.1);
  EXPECT_EQ(tracer.root().children.size(), 1u);
}

TEST(ScopedSpanTest, RaiiBuildsTree) {
  PhaseTracer tracer;
  {
    ScopedSpan outer(tracer, "load");
    { ScopedSpan inner(tracer, "parse"); }
  }
  const SpanNode* load = tracer.root().FindChild("load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->calls, 1u);
  EXPECT_NE(load->FindChild("parse"), nullptr);
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
  recorder.Record("ignored", 0, 10);
  EXPECT_EQ(recorder.NumTracks(), 0u);
  EXPECT_EQ(recorder.NumEvents(), 0u);
}

TEST(TimelineTest, RecordsCompleteEventsWithArgs) {
  TimelineRecorder recorder;
  recorder.Start();
  TimelineEvent::Arg args[2] = {};
  std::snprintf(args[0].key, sizeof(args[0].key), "level");
  args[0].value = 3;
  std::snprintf(args[1].key, sizeof(args[1].key), "round");
  args[1].value = 7;
  recorder.Record("peel.round", 100, 250, args, 2);
  recorder.Stop();

  JsonValue doc = recorder.ToJson();
  EXPECT_EQ(doc.Find("schema")->Str(), "tkc.trace.v1");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // One thread_name metadata record plus the slice itself.
  ASSERT_EQ(events->Items().size(), 2u);
  const JsonValue& slice = events->Items()[1];
  EXPECT_EQ(slice.Find("ph")->Str(), "X");
  EXPECT_EQ(slice.Find("name")->Str(), "peel.round");
  EXPECT_DOUBLE_EQ(slice.Find("ts")->Number(), 0.1);   // 100ns in us
  EXPECT_DOUBLE_EQ(slice.Find("dur")->Number(), 0.25);
  EXPECT_EQ(slice.FindPath("args.level")->Number(), 3.0);
  EXPECT_EQ(slice.FindPath("args.round")->Number(), 7.0);
  recorder.Reset();
  EXPECT_EQ(recorder.NumEvents(), 0u);
}

TEST(TimelineTest, OverflowCountsDropsInsteadOfGrowing) {
  TimelineRecorder recorder;
  recorder.Start(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) recorder.Record("e", i, 1);
  recorder.Stop();
  EXPECT_EQ(recorder.NumEvents(), 4u);
  EXPECT_EQ(recorder.DroppedEvents(), 6u);
  JsonValue doc = recorder.ToJson();
  EXPECT_EQ(doc.Find("dropped_events")->Number(), 6.0);
  EXPECT_EQ(doc.FindPath("tracks")->Items()[0].Find("dropped")->Number(),
            6.0);
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
  PhaseTracer tracer;
  {
    ScopedMemSpan span(tracer, "phase");
    // Some visible allocation so the phase is not trivially empty.
    std::vector<uint64_t> ballast(1 << 16, 42);
    EXPECT_GT(ballast[123], 0u);
  }
  EXPECT_GT(registry.GetGauge("mem.current_rss_bytes").Value(), 0.0);
  EXPECT_GT(registry.GetGauge("mem.peak_rss_bytes").Value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("mem.phase.rss_growth_bytes").Count(), 1u);
  const SpanNode* node = tracer.root().FindChild("phase");
  ASSERT_NE(node, nullptr);
  bool saw_peak = false;
  for (const auto& [key, value] : node->counters) {
    if (key == "rss_peak_bytes") saw_peak = value > 0;
  }
  EXPECT_TRUE(saw_peak);
}

}  // namespace
}  // namespace tkc::obs
