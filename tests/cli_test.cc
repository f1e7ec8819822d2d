#include "tkc/cli/cli.h"

#include <algorithm>
#include <fstream>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/gen/dynamic_gen.h"
#include "tkc/gen/generators.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/event_list.h"
#include "tkc/io/graph_cache.h"
#include "tkc/obs/json.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

int RunTool(const std::vector<std::string>& args, std::string* out_str,
        std::string* err_str = nullptr) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  if (out_str != nullptr) *out_str = out.str();
  if (err_str != nullptr) *err_str = err.str();
  return code;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_path_ = TempPath("cli_edges.txt");
    Graph g = PaperFigure2Graph();
    ASSERT_TRUE(WriteEdgeListFile(g, edges_path_));
  }
  std::string edges_path_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  std::string out, err;
  EXPECT_EQ(RunTool({}, &out, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommand) {
  std::string out, err;
  EXPECT_EQ(RunTool({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, DecomposeFigure2) {
  std::string out;
  ASSERT_EQ(RunTool({"decompose", edges_path_}, &out), 0);
  // AB = (0,1) has kappa 1; DE = (3,4) has kappa 2.
  EXPECT_NE(out.find("0 1 1 3"), std::string::npos);
  EXPECT_NE(out.find("3 4 2 4"), std::string::npos);
  EXPECT_NE(out.find("max_kappa=2"), std::string::npos);
}

TEST_F(CliTest, DecomposeStoreModeAgrees) {
  std::string a, b;
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--mode=store"}, &a), 0);
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--mode=recompute"}, &b), 0);
  // Strip the timing line before comparing.
  a = a.substr(0, a.rfind("# edges"));
  b = b.substr(0, b.rfind("# edges"));
  EXPECT_EQ(a, b);
}

TEST_F(CliTest, DecomposeThreadsAgreeWithDefaults) {
  // A bigger graph than Figure 2 so the parallel support pass splits real
  // work; every --threads row must emit byte-identical κ output to the
  // default run.
  std::string big_path = TempPath("cli_matrix_edges.txt");
  Rng rng(2012);
  Graph g = PowerLawCluster(200, 4, 0.5, rng);
  ASSERT_TRUE(WriteEdgeListFile(g, big_path));
  std::string base;
  ASSERT_EQ(RunTool({"decompose", big_path}, &base), 0);
  base = base.substr(0, base.rfind("# edges"));
  for (const char* threads : {"--threads=1", "--threads=4"}) {
    std::string out;
    ASSERT_EQ(RunTool({"decompose", big_path, threads}, &out), 0) << threads;
    out = out.substr(0, out.rfind("# edges"));
    EXPECT_EQ(out, base) << threads;
  }
}

TEST_F(CliTest, UnknownKernelRejected) {
  // The intersection-kernel flag is gone; naming it is a usage error, not
  // a silently ignored knob.
  std::string out, err;
  EXPECT_EQ(RunTool({"decompose", edges_path_, "--kernel=avx2"}, &out, &err),
            2);
  EXPECT_NE(err.find("unknown flag '--kernel'"), std::string::npos);
}

TEST_F(CliTest, RelabelFlagRejected) {
  // Vertices are always stored in source ids; the relabel flag is gone.
  std::string out, err;
  EXPECT_EQ(RunTool({"decompose", edges_path_, "--relabel=degree"}, &out, &err),
            2);
  EXPECT_NE(err.find("unknown flag '--relabel'"), std::string::npos);
  err.clear();
  EXPECT_EQ(RunTool({"cache", "build", edges_path_,
                 "--out=" + TempPath("cli_cache_relabel.tkcg"),
                 "--relabel=degree"},
                &out, &err),
            2);
  EXPECT_NE(err.find("unknown flag '--relabel'"), std::string::npos);
}

TEST_F(CliTest, DecomposeMetricsOut) {
  std::string metrics_path = TempPath("cli_metrics.json");
  std::string out;
  ASSERT_EQ(RunTool({"decompose", edges_path_,
                 "--metrics-out=" + metrics_path},
                &out),
            0);
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("schema")->Str(), "tkc.metrics.v1");
  EXPECT_EQ(doc->Find("command")->Str(), "decompose");
  EXPECT_EQ(doc->Find("exit_code")->Number(), 0.0);

  // Triangle counters from the decomposition of Figure 2 (5 triangles).
  const obs::JsonValue* counters = doc->FindPath("metrics.counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("triangle.triangles_found")->Number(), 5.0);
  EXPECT_GT(counters->Find("core.peel.edges_peeled")->Number(), 0.0);
  EXPECT_NE(counters->Find("core.peel.level.1"), nullptr);
  EXPECT_NE(counters->Find("core.peel.level.2"), nullptr);

  // The phase tree must contain decompose -> core.decompose with the
  // support_count and peel phases.
  const obs::JsonValue* trace = doc->Find("trace");
  ASSERT_TRUE(trace != nullptr && trace->IsArray());
  const obs::JsonValue* core = nullptr;
  for (const obs::JsonValue& top : trace->Items()) {
    for (const obs::JsonValue& child : top.Find("children")->Items()) {
      if (child.Find("name")->Str() == "core.decompose") core = &child;
    }
  }
  ASSERT_NE(core, nullptr);
  std::vector<std::string> phases;
  for (const obs::JsonValue& child : core->Find("children")->Items()) {
    phases.push_back(child.Find("name")->Str());
  }
  EXPECT_NE(std::find(phases.begin(), phases.end(), "support_count"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "triangle_index"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "peel"), phases.end());
  EXPECT_NE(doc->FindPath("metrics.gauges")->Find("mem.triangle_index_bytes"),
            nullptr);
}

// The first span called `name` in a tkc.metrics.v1 phase tree, depth
// first; nullptr if there is none.
const obs::JsonValue* FindSpan(const obs::JsonValue& node,
                               const std::string& name) {
  if (node.Find("name")->Str() == name) return &node;
  const obs::JsonValue* children = node.Find("children");
  if (children == nullptr) return nullptr;
  for (const obs::JsonValue& child : children->Items()) {
    if (const obs::JsonValue* hit = FindSpan(child, name)) return hit;
  }
  return nullptr;
}

// Every span name in a tkc.metrics.v1 phase tree, recursively.
void CollectSpanNames(const obs::JsonValue& node, std::set<std::string>* out) {
  out->insert(node.Find("name")->Str());
  const obs::JsonValue* children = node.Find("children");
  if (children == nullptr) return;
  for (const obs::JsonValue& child : children->Items()) {
    CollectSpanNames(child, out);
  }
}

// Also checks that store mode enumerates the triangles once at any
// --threads: the support count records them and the index is derived from
// that record, so the enumeration counter equals the summary's triangle
// count and core.decompose has exactly the three phases. The peel's
// `peel.level` slices carry `edges` and `rounds` amounts, and the peel's
// work counts do not depend on --threads either.
TEST_F(CliTest, DecomposeMetricsSchemaIndependentOfThreads) {
  std::string big_path = TempPath("cli_schema_edges.txt");
  Rng rng(99);
  ASSERT_TRUE(WriteEdgeListFile(PowerLawCluster(400, 4, 0.5, rng), big_path));
  std::set<std::string> spans[2], counters[2];
  std::vector<double> peel_amounts[2];
  const char* threads[2] = {"--threads=1", "--threads=4"};
  for (int i = 0; i < 2; ++i) {
    const std::string metrics_path =
        TempPath(std::string("cli_schema_") + std::to_string(i) + ".json");
    std::string out;
    ASSERT_EQ(RunTool({"decompose", big_path, threads[i],
                       "--metrics-out=" + metrics_path},
                      &out),
              0);
    std::ifstream in(metrics_path);
    std::stringstream buf;
    buf << in.rdbuf();
    auto doc = obs::JsonValue::Parse(buf.str());
    ASSERT_TRUE(doc.has_value());
    std::vector<std::string> phases;
    for (const obs::JsonValue& top : doc->Find("trace")->Items()) {
      CollectSpanNames(top, &spans[i]);
      for (const obs::JsonValue& child : top.Find("children")->Items()) {
        if (child.Find("name")->Str() != "core.decompose") continue;
        for (const obs::JsonValue& phase : child.Find("children")->Items()) {
          phases.push_back(phase.Find("name")->Str());
        }
      }
    }
    EXPECT_EQ(phases, (std::vector<std::string>{"support_count",
                                                "triangle_index", "peel"}))
        << threads[i];
    const obs::JsonValue& root = doc->Find("trace")->Items()[0];
    const obs::JsonValue* peel = FindSpan(root, "peel");
    const obs::JsonValue* level = FindSpan(root, "peel.level");
    ASSERT_NE(peel, nullptr);
    ASSERT_NE(level, nullptr);
    std::vector<std::string> level_keys;
    for (const auto& [key, value] : level->Find("counters")->Members()) {
      level_keys.push_back(key);
      peel_amounts[i].push_back(value.Number());
    }
    EXPECT_EQ(level_keys, (std::vector<std::string>{"edges", "rounds"}))
        << threads[i];
    for (const auto& [key, value] : peel->Find("counters")->Members()) {
      peel_amounts[i].push_back(value.Number());
    }
    peel_amounts[i].push_back(level->Find("calls")->Number());
    // The text graph is parsed, then frozen directly: no builder Graph is
    // released between the load and the analysis.
    std::vector<std::string> root_phases;
    for (const obs::JsonValue& child :
         doc->Find("trace")->Items()[0].Find("children")->Items()) {
      root_phases.push_back(child.Find("name")->Str());
    }
    EXPECT_EQ(root_phases,
              (std::vector<std::string>{"cli.load_graph", "csr.freeze",
                                        "core.decompose", "output",
                                        "cli.release"}))
        << threads[i];
    for (const auto& [key, value] :
         doc->FindPath("metrics.counters")->Members()) {
      counters[i].insert(key);
    }
    const size_t at = out.find(" triangles=");
    ASSERT_NE(at, std::string::npos);
    const double triangles = std::stod(out.substr(at + 11));
    EXPECT_GT(triangles, 0.0);
    EXPECT_EQ(doc->FindPath("metrics.counters")
                  ->Find("triangle.triangles_found")
                  ->Number(),
              triangles)
        << threads[i];
  }
  EXPECT_EQ(spans[0], spans[1]);
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(peel_amounts[0], peel_amounts[1]);
  EXPECT_TRUE(spans[0].count("triangle_index"));
}

// Every span path ("replay/engine.snapshot") of a tkc.metrics.v1 phase
// tree, and every span counter as "path:key", recursively.
void CollectSpanPaths(const obs::JsonValue& node, const std::string& prefix,
                      std::set<std::string>* paths,
                      std::set<std::string>* counter_keys) {
  const std::string path = prefix + node.Find("name")->Str();
  paths->insert(path);
  if (const obs::JsonValue* counters = node.Find("counters")) {
    for (const auto& [key, value] : counters->Members()) {
      counter_keys->insert(path + ":" + key);
    }
  }
  const obs::JsonValue* children = node.Find("children");
  if (children == nullptr) return;
  for (const obs::JsonValue& child : children->Items()) {
    CollectSpanPaths(child, path + "/", paths, counter_keys);
  }
}

// Sums (calls, seconds) per span name over a phase tree.
void SumByName(const obs::JsonValue& node,
               std::map<std::string, std::pair<double, double>>* out) {
  auto& [calls, seconds] = (*out)[node.Find("name")->Str()];
  calls += node.Find("calls")->Number();
  seconds += node.Find("seconds")->Number();
  const obs::JsonValue* children = node.Find("children");
  if (children == nullptr) return;
  for (const obs::JsonValue& child : children->Items()) SumByName(child, out);
}

obs::JsonValue ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = obs::JsonValue::Parse(buf.str());
  return doc.has_value() ? *doc : obs::JsonValue();
}

// The --metrics-out tree is folded from the --trace-out timeline's main
// track: per span name, the tree's calls and seconds equal the number and
// summed durations of that track's slices.
TEST_F(CliTest, DecomposePhaseTreeIsFoldedFromTheMainTrack) {
  std::string big_path = TempPath("cli_fold_edges.txt");
  Rng rng(99);
  ASSERT_TRUE(WriteEdgeListFile(PowerLawCluster(400, 4, 0.5, rng), big_path));
  const std::string metrics_path = TempPath("cli_fold_metrics.json");
  const std::string trace_path = TempPath("cli_fold_trace.json");
  std::string out;
  ASSERT_EQ(RunTool({"decompose", big_path, "--threads=4",
                     "--metrics-out=" + metrics_path,
                     "--trace-out=" + trace_path},
                    &out),
            0);
  const obs::JsonValue metrics = ReadJsonFile(metrics_path);
  const obs::JsonValue trace = ReadJsonFile(trace_path);
  ASSERT_TRUE(metrics.IsObject() && trace.IsObject());
  EXPECT_EQ(metrics.Find("dropped_events")->Number(), 0.0);
  std::map<std::string, std::pair<double, double>> tree, track;
  for (const obs::JsonValue& top : metrics.Find("trace")->Items()) {
    SumByName(top, &tree);
  }
  ASSERT_EQ(trace.Find("tracks")->Items()[0].Find("name")->Str(), "main");
  for (const obs::JsonValue& e : trace.Find("traceEvents")->Items()) {
    if (e.Find("ph")->Str() != "X" || e.Find("tid")->Number() != 0) continue;
    auto& [calls, seconds] = track[e.Find("name")->Str()];
    calls += 1;
    seconds += e.Find("dur")->Number() / 1e6;
  }
  ASSERT_EQ(tree.size(), track.size());
  for (const auto& [name, totals] : tree) {
    ASSERT_TRUE(track.count(name)) << name;
    EXPECT_EQ(totals.first, track[name].first) << name;
    EXPECT_NEAR(totals.second, track[name].second, 1e-9) << name;
  }
  // The worker chunks of the parallel phases stay on their own tracks.
  EXPECT_GT(tree["parallel_for.chunk"].first, 0.0);
  EXPECT_GT(trace.Find("tracks")->Items().size(), 1u);
}

// A replay with snapshot queries emits the same span paths, span counters
// and metrics at any --threads.
TEST_F(CliTest, ReplayMetricsSchemaIndependentOfThreads) {
  std::string big_path = TempPath("cli_replay_schema_edges.txt");
  Rng rng(17);
  ASSERT_TRUE(WriteEdgeListFile(PowerLawCluster(400, 4, 0.5, rng), big_path));
  const std::string events_path = TempPath("cli_replay_schema_events.txt");
  {
    std::ofstream ev(events_path);
    for (int i = 0; i < 400; ++i) {
      const uint64_t u = rng.NextBounded(420);
      const uint64_t v = rng.NextBounded(420);
      if (u != v) ev << (i % 3 == 0 ? "- " : "+ ") << u << ' ' << v << '\n';
    }
  }
  std::set<std::string> spans[2], span_keys[2], counters[2];
  const char* threads[2] = {"--threads=1", "--threads=4"};
  for (int i = 0; i < 2; ++i) {
    const std::string metrics_path = TempPath(
        std::string("cli_replay_schema_") + std::to_string(i) + ".json");
    std::string out;
    ASSERT_EQ(RunTool({"replay", big_path, "--events=" + events_path,
                       "--batch=16", "--query-every=4", threads[i],
                       "--metrics-out=" + metrics_path},
                      &out),
              0)
        << threads[i];
    const obs::JsonValue doc = ReadJsonFile(metrics_path);
    ASSERT_TRUE(doc.IsObject());
    for (const obs::JsonValue& top : doc.Find("trace")->Items()) {
      CollectSpanPaths(top, "", &spans[i], &span_keys[i]);
    }
    for (const auto& [key, value] :
         doc.FindPath("metrics.counters")->Members()) {
      counters[i].insert(key);
    }
    EXPECT_EQ(doc.FindPath("metrics.counters")
                  ->Find("analysis.support_computations")
                  ->Number(),
              1.0)
        << threads[i];
  }
  EXPECT_EQ(spans[0], spans[1]);
  EXPECT_EQ(span_keys[0], span_keys[1]);
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_TRUE(spans[0].count("replay/engine.snapshot"));
  // Queries read the maintained triangle total: no recount. The only
  // support count is the initial decomposition's.
  for (const std::string& span : spans[0]) {
    EXPECT_TRUE(span.find("support_count") == std::string::npos ||
                span.rfind("replay/core.decompose/", 0) == 0)
        << span;
  }
  EXPECT_TRUE(span_keys[0].count(
      "replay/engine.apply_batch/dyn.apply_batch:triangles_scanned"));
  // The loader freezes the parsed edge table directly: there is no builder
  // Graph to release before the engine starts.
  EXPECT_TRUE(spans[0].count("replay/csr.freeze"));
  EXPECT_FALSE(spans[0].count("replay/cli.release_graph"));
}

TEST_F(CliTest, DecomposeRecomputeModeMatchesDefaultAtAnyThreads) {
  std::string big_path = TempPath("cli_mode_edges.txt");
  Rng rng(7);
  ASSERT_TRUE(WriteEdgeListFile(PowerLawCluster(300, 4, 0.5, rng), big_path));
  std::string base;
  ASSERT_EQ(RunTool({"decompose", big_path}, &base), 0);
  base = base.substr(0, base.rfind("# edges"));
  for (const char* threads : {"--threads=1", "--threads=4"}) {
    for (const char* mode : {"--mode=recompute", "--mode=store"}) {
      std::string out;
      ASSERT_EQ(RunTool({"decompose", big_path, mode, threads}, &out), 0);
      EXPECT_EQ(out.substr(0, out.rfind("# edges")), base)
          << mode << ' ' << threads;
    }
  }
}

TEST_F(CliTest, DecomposeRejectsUnknownMode) {
  std::string out, err;
  EXPECT_EQ(
      RunTool({"decompose", edges_path_, "--mode=stor"}, &out, &err), 2);
  EXPECT_NE(err.find("--mode"), std::string::npos);
}

TEST_F(CliTest, LogLevelFlag) {
  std::string out, err;
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--log-level=info"}, &out,
                &err),
            0);
  EXPECT_NE(err.find("level=info event=graph.loaded"), std::string::npos);

  err.clear();
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--log-level=error"}, &out,
                &err),
            0);
  EXPECT_EQ(err.find("graph.loaded"), std::string::npos);

  EXPECT_EQ(RunTool({"decompose", edges_path_, "--log-level=loud"}, &out,
                &err),
            2);
}

TEST_F(CliTest, UnknownFlagRejected) {
  std::string out, err;
  EXPECT_EQ(RunTool({"decompose", edges_path_, "--bogus=1"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  // Global flags stay accepted everywhere.
  EXPECT_EQ(RunTool({"kcore", edges_path_, "--log-level=error"}, &out, &err),
            0);
}

TEST_F(CliTest, MissingFileFails) {
  std::string out, err;
  EXPECT_EQ(RunTool({"decompose", "/no/such/file"}, &out, &err), 2);
  EXPECT_NE(err.find("cannot read"), std::string::npos);
}

TEST_F(CliTest, KCore) {
  std::string out;
  ASSERT_EQ(RunTool({"kcore", edges_path_}, &out), 0);
  EXPECT_NE(out.find("max_core=3"), std::string::npos);
}

TEST_F(CliTest, Stats) {
  std::string out;
  ASSERT_EQ(RunTool({"stats", edges_path_}, &out), 0);
  EXPECT_NE(out.find("vertices:               5"), std::string::npos);
  EXPECT_NE(out.find("triangles:              5"), std::string::npos);
}

TEST_F(CliTest, PlotWithSvg) {
  std::string svg_path = TempPath("cli_plot.svg");
  std::string out;
  ASSERT_EQ(RunTool({"plot", edges_path_, "--svg=" + svg_path, "--height=6"},
                &out),
            0);
  EXPECT_NE(out.find('#'), std::string::npos);
  std::ifstream svg(svg_path);
  EXPECT_TRUE(svg.good());
}

TEST_F(CliTest, Hierarchy) {
  std::string out;
  ASSERT_EQ(RunTool({"hierarchy", edges_path_}, &out), 0);
  EXPECT_NE(out.find("k=1"), std::string::npos);
  EXPECT_NE(out.find("k=2"), std::string::npos);
}

TEST_F(CliTest, UpdateAppliesEventsAndVerifies) {
  std::string events_path = TempPath("cli_events.txt");
  {
    std::ofstream ev(events_path);
    ev << "# add chord, drop an old edge\n+ 0 3\n- 0 1\n";
  }
  std::string out;
  ASSERT_EQ(RunTool({"update", edges_path_, events_path}, &out), 0);
  EXPECT_NE(out.find("events=2"), std::string::npos);
  EXPECT_NE(out.find("verified=yes"), std::string::npos);
}

TEST_F(CliTest, UpdateSkipsMalformedEventRowsWithWarning) {
  // Hardened io/event_list semantics: junk rows are skipped and counted,
  // not fatal — the valid rows still apply.
  std::string events_path = TempPath("cli_bad_events.txt");
  {
    std::ofstream ev(events_path);
    ev << "* 0 1\n+ 2 2\n+ 0 3\n";
  }
  std::string out, err;
  EXPECT_EQ(RunTool({"update", edges_path_, events_path, "--log-level=warn"},
                &out, &err),
            0);
  EXPECT_NE(out.find("events=1"), std::string::npos);
  EXPECT_NE(out.find("verified=yes"), std::string::npos);
  EXPECT_NE(err.find("events.lines_skipped"), std::string::npos);
}

TEST_F(CliTest, UpdateMissingEventsFileFails) {
  std::string out, err;
  EXPECT_EQ(RunTool({"update", edges_path_, "/no/such/events"}, &out, &err),
            2);
  EXPECT_NE(err.find("cannot read events"), std::string::npos);
}

TEST_F(CliTest, UpdateWritesUpdateStatsIntoMetricsArtifact) {
  std::string events_path = TempPath("cli_update_stats_events.txt");
  {
    std::ofstream ev(events_path);
    ev << "+ 0 3\n- 0 1\n";
  }
  std::string metrics_path = TempPath("cli_update_metrics.json");
  std::string out;
  ASSERT_EQ(RunTool({"update", edges_path_, events_path,
                 "--metrics-out=" + metrics_path},
                &out),
            0);
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* stats = doc->Find("update_stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(stats->Find("candidate_edges"), nullptr);
  EXPECT_NE(stats->Find("promoted_edges"), nullptr);
  EXPECT_NE(stats->Find("demoted_edges"), nullptr);
  EXPECT_NE(stats->Find("triangles_scanned"), nullptr);

  // The stream runs as one batch: dyn.apply_batch with its removal and
  // insert phases are the only maintainer spans.
  std::set<std::string> spans, dyn_spans;
  const obs::JsonValue* batch = nullptr;
  for (const obs::JsonValue& top : doc->Find("trace")->Items()) {
    CollectSpanNames(top, &spans);
    if (batch == nullptr) batch = FindSpan(top, "dyn.apply_batch");
  }
  for (const std::string& name : spans) {
    if (name.rfind("dyn.", 0) == 0) dyn_spans.insert(name);
  }
  EXPECT_EQ(dyn_spans, (std::set<std::string>{"dyn.apply_batch", "dyn.insert",
                                              "dyn.remove"}));
  ASSERT_NE(batch, nullptr);
  std::set<std::string> phases;
  for (const obs::JsonValue& child : batch->Find("children")->Items()) {
    phases.insert(child.Find("name")->Str());
  }
  EXPECT_EQ(phases, (std::set<std::string>{"dyn.insert", "dyn.remove"}));
}

// Parses `u v kappa ...` rows (comments skipped) into κ per (u,v).
std::map<std::pair<VertexId, VertexId>, uint32_t> KappaRows(
    const std::string& text) {
  std::map<std::pair<VertexId, VertexId>, uint32_t> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    VertexId u = 0, v = 0;
    uint32_t kappa = 0;
    row >> u >> v >> kappa;
    rows[{u, v}] = kappa;
  }
  return rows;
}

TEST_F(CliTest, UpdateCoalescesRemoveReinsertAndNoOps) {
  // BC is removed and re-inserted, AD inserted, DE (present) inserted and
  // AE (absent) removed; the batch's net effect is the single insert AD.
  std::string events_path = TempPath("cli_coalesce_events.txt");
  {
    std::ofstream ev(events_path);
    ev << "- 1 2\n+ 0 3\n+ 2 1\n+ 3 4\n- 0 4\n";
  }
  std::string out;
  ASSERT_EQ(RunTool({"update", edges_path_, events_path}, &out), 0);
  EXPECT_NE(out.find("events=5"), std::string::npos);
  EXPECT_NE(out.find(" verified=yes"), std::string::npos);
  // Rows follow EdgeId order, and BC kept its id through the coalescer,
  // so it stays the third row.
  std::istringstream rows(out);
  std::string line;
  std::vector<std::string> data;
  while (std::getline(rows, line)) {
    if (!line.empty() && line[0] != '#') data.push_back(line);
  }
  ASSERT_EQ(data.size(), 9u);
  EXPECT_EQ(data[2].substr(0, 4), "1 2 ");

  Graph final_graph = PaperFigure2Graph();
  final_graph.AddEdge(0, 3);
  const std::string final_path = TempPath("cli_coalesce_final.txt");
  ASSERT_TRUE(WriteEdgeListFile(final_graph, final_path));
  std::string decomposed;
  ASSERT_EQ(RunTool({"decompose", final_path}, &decomposed), 0);
  EXPECT_EQ(KappaRows(out), KappaRows(decomposed));
}

TEST_F(CliTest, ReplayStreamsEventsThroughEngine) {
  std::string events_path = TempPath("cli_replay_events.txt");
  {
    std::ofstream ev(events_path);
    ev << "# mixed log with junk rows\n"
          "+ 0 3\n"
          "junk row\n"
          "+ 1 1\n"  // self-loop: skipped, counted
          "+ 1 3\n"
          "- 0 1\n"
          "+ 0 1\n"
          "+ 2 4\n";
  }
  std::string json_path = TempPath("cli_replay.json");
  std::string metrics_path = TempPath("cli_replay_metrics.json");
  std::string out;
  ASSERT_EQ(RunTool({"replay", edges_path_, "--events=" + events_path,
                 "--batch=2", "--query-every=1", "--compact-edits=2",
                 "--verify", "--json-out=" + json_path,
                 "--metrics-out=" + metrics_path},
                &out),
            0);
  EXPECT_NE(out.find("batch 1:"), std::string::npos);
  EXPECT_NE(out.find("query after batch"), std::string::npos);
  EXPECT_NE(out.find("verified=yes"), std::string::npos);
  EXPECT_NE(out.find("skipped=2"), std::string::npos);

  // tkc.replay.v1 artifact.
  std::ifstream rin(json_path);
  ASSERT_TRUE(rin.good());
  std::stringstream rbuf;
  rbuf << rin.rdbuf();
  auto rdoc = obs::JsonValue::Parse(rbuf.str());
  ASSERT_TRUE(rdoc.has_value());
  EXPECT_EQ(rdoc->Find("schema")->Str(), "tkc.replay.v1");
  EXPECT_EQ(rdoc->Find("events")->Number(), 5.0);
  EXPECT_EQ(rdoc->Find("events_skipped")->Number(), 2.0);
  EXPECT_EQ(rdoc->Find("verified")->Str(), "yes");
  EXPECT_NE(rdoc->Find("update_stats"), nullptr);
  ASSERT_TRUE(rdoc->Find("batch_log")->IsArray());
  EXPECT_EQ(rdoc->Find("batch_log")->Items().size(), 3u);  // ceil(5/2)

  // Metrics artifact: the maintainer's batch counters, the skip counters
  // from the hardened parser, and the update_stats block.
  std::ifstream min(metrics_path);
  ASSERT_TRUE(min.good());
  std::stringstream mbuf;
  mbuf << min.rdbuf();
  auto mdoc = obs::JsonValue::Parse(mbuf.str());
  ASSERT_TRUE(mdoc.has_value());
  const obs::JsonValue* counters = mdoc->FindPath("metrics.counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("dyn.batch.count")->Number(), 3.0);
  EXPECT_EQ(counters->Find("dyn.batch.events")->Number(), 5.0);
  EXPECT_EQ(counters->Find("io.events_skipped")->Number(), 2.0);
  EXPECT_EQ(counters->Find("io.events_self_loops")->Number(), 1.0);
  EXPECT_NE(mdoc->Find("update_stats"), nullptr);

  // The phase tree carries the per-batch record: one engine.apply_batch
  // call per printed batch, and its maintainer child's events counter
  // sums to the summary's events=.
  ASSERT_NE(out.find("# events=5 "), std::string::npos);
  ASSERT_NE(out.find(" batches=3 "), std::string::npos);
  const obs::JsonValue* trace = mdoc->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->Items().size(), 1u);
  const obs::JsonValue& root = trace->Items()[0];
  ASSERT_EQ(root.Find("name")->Str(), "replay");
  const obs::JsonValue* apply = nullptr;
  for (const obs::JsonValue& child : root.Find("children")->Items()) {
    if (child.Find("name")->Str() == "engine.apply_batch") apply = &child;
  }
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(apply->Find("calls")->Number(), 3.0);
  ASSERT_NE(apply->Find("children"), nullptr);
  const obs::JsonValue& dyn_batch = apply->Find("children")->Items()[0];
  EXPECT_EQ(dyn_batch.Find("name")->Str(), "dyn.apply_batch");
  EXPECT_EQ(dyn_batch.Find("calls")->Number(), 3.0);
  EXPECT_EQ(dyn_batch.FindPath("counters")->Find("events")->Number(), 5.0);
}

TEST_F(CliTest, ReplayRequiresEventsFlag) {
  std::string out, err;
  EXPECT_EQ(RunTool({"replay", edges_path_}, &out, &err), 2);
  EXPECT_NE(err.find("requires --events"), std::string::npos);
}

TEST_F(CliTest, ReplayRejectsBadFlags) {
  std::string out, err;
  EXPECT_EQ(RunTool({"replay", edges_path_, "--events=/no/such/file"}, &out,
                &err),
            2);
  EXPECT_EQ(RunTool({"replay", edges_path_, "--events=x", "--batch=0"},
                &out, &err),
            2);
  EXPECT_EQ(RunTool({"replay", edges_path_, "--events=x", "--bogus=1"},
                &out, &err),
            2);
}

TEST_F(CliTest, UsageListsReplayAndGlobalFlags) {
  std::string out, err;
  EXPECT_EQ(RunTool({}, &out, &err), 2);
  EXPECT_NE(err.find("replay"), std::string::npos);
  EXPECT_NE(err.find("--trace-out=FILE"), std::string::npos);
  EXPECT_NE(err.find("--threads=N"), std::string::npos);
}

TEST_F(CliTest, VerifyCleanGraphPasses) {
  std::string out;
  ASSERT_EQ(RunTool({"verify", edges_path_}, &out), 0);
  EXPECT_NE(out.find("PASS  kappa.soundness"), std::string::npos);
  EXPECT_NE(out.find("PASS  kappa.maximality"), std::string::npos);
  EXPECT_NE(out.find("passed=yes"), std::string::npos);
  EXPECT_EQ(out.find("FAIL"), std::string::npos);
}

TEST_F(CliTest, VerifyWritesVerifyV1Artifact) {
  std::string json_path = TempPath("cli_verify.json");
  std::string out;
  ASSERT_EQ(RunTool({"verify", edges_path_, "--json-out=" + json_path},
                    &out),
            0);
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"schema\": \"tkc.verify.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
  EXPECT_NE(json.find("kappa.maximality"), std::string::npos);
}

TEST_F(CliTest, VerifyWithEventsRunsReplay) {
  std::string events_path = TempPath("cli_verify_events.txt");
  {
    std::ofstream ev(events_path);
    ev << "+ 0 3\n- 0 1\n+ 0 1\n";
  }
  std::string out;
  ASSERT_EQ(RunTool({"verify", edges_path_, "--events=" + events_path,
                 "--check-every=2"},
                &out),
            0);
  EXPECT_NE(out.find("PASS  dynamic.replay"), std::string::npos);
  EXPECT_NE(out.find("passed=yes"), std::string::npos);
}

TEST_F(CliTest, VerifyRejectsBadFlags) {
  std::string out, err;
  EXPECT_EQ(RunTool({"verify", edges_path_, "--mode=never"}, &out, &err), 2);
  EXPECT_EQ(RunTool({"verify", edges_path_, "--check-every=0"}, &out, &err),
            2);
  EXPECT_EQ(RunTool({"verify", edges_path_, "--events=/no/such/file"}, &out,
                &err),
            2);
}

TEST_F(CliTest, TemplatesNewForm) {
  // old: 5 isolated vertices; new: the K5 over them.
  std::string old_path = TempPath("cli_old.txt");
  std::string new_path = TempPath("cli_new.txt");
  {
    Graph old_g(5);
    old_g.AddEdge(5, 6);  // keep vertices 0..4 present but idle
    ASSERT_TRUE(WriteEdgeListFile(old_g, old_path));
    Graph new_g = old_g;
    PlantClique(new_g, {0, 1, 2, 3, 4});
    ASSERT_TRUE(WriteEdgeListFile(new_g, new_path));
  }
  std::string out;
  ASSERT_EQ(RunTool({"templates", old_path, new_path, "--pattern=newform"},
                &out),
            0);
  EXPECT_NE(out.find("pattern=NewForm"), std::string::npos);
  EXPECT_NE(out.find("size=5"), std::string::npos);
}

TEST_F(CliTest, TemplatesUnknownPattern) {
  std::string out, err;
  EXPECT_EQ(
      RunTool({"templates", edges_path_, edges_path_, "--pattern=zigzag"}, &out,
          &err),
      2);
}

TEST_F(CliTest, GenerateRoundTrip) {
  std::string out_path = TempPath("cli_gen.txt");
  std::string out;
  ASSERT_EQ(RunTool({"generate", "plc", "--n=200", "--m=3", "--seed=5",
                 "--out=" + out_path},
                &out),
            0);
  auto g = ReadEdgeListFile(out_path);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumVertices(), 200u);
  EXPECT_GT(g->NumEdges(), 500u);
}

TEST_F(CliTest, GenerateRequiresOut) {
  std::string out, err;
  EXPECT_EQ(RunTool({"generate", "er", "--n=50"}, &out, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

TEST_F(CliTest, GenerateAllModels) {
  for (const char* model :
       {"er", "gnm", "ba", "plc", "ws", "rmat", "geometric", "collab"}) {
    std::string out_path = TempPath(std::string("cli_gen_") + model + ".txt");
    std::string out;
    ASSERT_EQ(RunTool({"generate", model, "--n=128", "--seed=3",
                   "--out=" + out_path},
                  &out),
              0)
        << model;
    auto g = ReadEdgeListFile(out_path);
    ASSERT_TRUE(g.has_value()) << model;
    EXPECT_GT(g->NumEdges(), 0u) << model;
  }
}

TEST_F(CliTest, TraceOutArtifact) {
  std::string trace_path = TempPath("cli_trace.json");
  std::string out;
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--threads=4",
                 "--trace-out=" + trace_path},
                &out),
            0);
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("schema")->Str(), "tkc.trace.v1");
  EXPECT_EQ(doc->Find("command")->Str(), "decompose");
  EXPECT_EQ(doc->Find("exit_code")->Number(), 0.0);

  // Track summary: main is tid 0 and the pool contributes at least two
  // worker tracks at --threads=4 (the support kernel fans out even on the
  // Figure 2 graph).
  const obs::JsonValue* tracks = doc->Find("tracks");
  ASSERT_TRUE(tracks != nullptr && tracks->IsArray());
  int workers_seen = 0;
  ASSERT_FALSE(tracks->Items().empty());
  EXPECT_EQ(tracks->Items()[0].Find("name")->Str(), "main");
  for (const obs::JsonValue& t : tracks->Items()) {
    if (t.Find("name")->Str().rfind("pool.worker-", 0) == 0) {
      ++workers_seen;
      EXPECT_GT(t.Find("events")->Number(), 0.0);
    }
  }
  EXPECT_GE(workers_seen, 2);

  // Chrome-trace body: one peel slice per κ level with level/edges args
  // and a thread_name metadata record per track.
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->IsArray());
  bool saw_level = false;
  size_t metadata = 0;
  for (const obs::JsonValue& e : events->Items()) {
    if (e.Find("ph")->Str() == "M") ++metadata;
    if (e.Find("name")->Str() == "peel.level") {
      saw_level = true;
      EXPECT_NE(e.FindPath("args.level"), nullptr);
      EXPECT_NE(e.FindPath("args.edges"), nullptr);
    }
  }
  EXPECT_TRUE(saw_level);
  EXPECT_EQ(metadata, tracks->Items().size());

  // Without --trace-out the recorder stays off and no stale state leaks
  // into the next invocation.
  ASSERT_EQ(RunTool({"decompose", edges_path_}, &out), 0);
  EXPECT_EQ(obs::TimelineRecorder::Global().NumEvents(), 0u);
}

TEST_F(CliTest, TraceOutUnwritablePathFails) {
  std::string out, err;
  EXPECT_EQ(RunTool({"stats", edges_path_,
                 "--trace-out=/no/such/dir/trace.json"},
                &out, &err),
            2);
  EXPECT_NE(err.find("cannot write trace"), std::string::npos);
}

TEST_F(CliTest, LogTimestampsFlag) {
  std::string out, err;
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--log-level=info",
                 "--log-timestamps"},
                &out, &err),
            0);
  EXPECT_EQ(err.rfind("ts=", 0), 0u);
  EXPECT_NE(err.find(" level=info event=graph.loaded"), std::string::npos);

  // Default stays byte-stable: no prefix without the flag, and the setting
  // does not leak into the next invocation.
  err.clear();
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--log-level=info"}, &out,
                &err),
            0);
  EXPECT_EQ(err.rfind("level=info", 0), 0u);
}

// Output rows with the timing footer stripped — '#' lines carry seconds=
// values that legitimately differ between runs.
std::string DataRows(const std::string& out) {
  std::istringstream in(out);
  std::string line, rows;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    rows += line;
    rows += '\n';
  }
  return rows;
}

TEST_F(CliTest, RemovedIngestWorkerFlagIsUnknown) {
  // Ingest follows --threads; the separate ingest worker flag is gone.
  // (The name is split so a search for the removed flag finds no users.)
  const std::string flag = "--ingest-" "threads";
  std::string out, err;
  EXPECT_EQ(RunTool({"decompose", edges_path_, flag + "=8"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown flag '" + flag + "'"), std::string::npos);
}

// Blanks the value of every field that varies between identical runs
// (timings) or by graph source (replay's cache counters).
std::string WithoutVaryingFields(const std::string& text) {
  static const std::regex kVarying(
      "\\b(seconds|events_per_sec|update_seconds|recompute_seconds|"
      "cache_hits|cache_misses)=[^ \n]*");
  return std::regex_replace(text, kVarying, "$1=");
}

// Every graph-reading command gets its frozen graph from one loader. From
// text, from a --graph-cache miss (text, then the cache is written) and
// from a hit, at any --threads, each prints the same bytes.
TEST_F(CliTest, EveryCommandPrintsTheSameFromTextCacheMissAndHit) {
  const std::string big_path = TempPath("cli_source_edges.txt");
  const std::string events_path = TempPath("cli_source_events.txt");
  const std::string cache = TempPath("cli_source.tkcg");
  Rng rng(77);
  Graph g = PowerLawCluster(400, 4, 0.5, rng);
  ASSERT_TRUE(WriteEdgeListFile(g, big_path));
  ASSERT_TRUE(WriteEventListFile(WedgeClosingChurn(g, 120, rng), events_path));
  const std::vector<std::vector<std::string>> commands = {
      {"decompose", big_path},
      {"decompose", big_path, "--mode=recompute"},
      {"kcore", big_path},
      {"stats", big_path},
      {"plot", big_path},
      {"hierarchy", big_path},
      {"update", big_path, events_path},
      {"replay", big_path, "--events=" + events_path, "--batch=16",
       "--query-every=2"},
      {"replay", big_path, "--events=" + events_path, "--batch=16",
       "--query-every=2", "--verify"},
      {"verify", big_path},
  };
  for (const std::vector<std::string>& command : commands) {
    const std::string name = command[0] + " " + command.back();
    std::string text;
    ASSERT_EQ(RunTool(command, &text), 0) << name;
    EXPECT_GT(text.size(), 0u) << name;
    for (const char* threads : {"--threads=1", "--threads=4"}) {
      std::remove(cache.c_str());
      for (const char* source : {"text", "cache.written", "cache.loaded"}) {
        std::vector<std::string> args = command;
        args.push_back(threads);
        if (std::string(source) != "text") {
          args.push_back("--graph-cache=" + cache);
          args.push_back("--log-level=info");
        }
        std::string out, err;
        ASSERT_EQ(RunTool(args, &out, &err), 0) << name << ' ' << threads;
        EXPECT_EQ(WithoutVaryingFields(out), WithoutVaryingFields(text))
            << name << ' ' << threads << ' ' << source;
        if (std::string(source) != "text") {
          EXPECT_NE(err.find(source), std::string::npos)
              << name << ' ' << threads;
        }
      }
    }
  }
}

// Usage errors are reported before the graph is read: a missing graph file
// does not mask them.
TEST_F(CliTest, UsageErrorsPrecedeGraphLoad) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"replay", "/no/such/file", "--events=x", "--batch=0"},
           "error: --batch must be >= 1\n"},
          {{"verify", "/no/such/file", "--check-every=0"},
           "error: --check-every must be >= 1\n"},
          {{"replay", "/no/such/file"}, "error: replay requires --events"},
          {{"verify", "/no/such/file", "--mode=store"},
           "error: unknown flag '--mode' for 'verify'"},
      };
  for (const auto& [args, message] : cases) {
    std::string out, err;
    EXPECT_EQ(RunTool(args, &out, &err), 2) << message;
    EXPECT_NE(err.find(message), std::string::npos) << err;
    EXPECT_EQ(err.find("cannot read edge list"), std::string::npos) << err;
  }
}

TEST_F(CliTest, NonNumericFlagValuesExitTwo) {
  // Each of these aborted with an uncaught std::stoll / std::stod
  // exception, silently narrowed --threads to an int, or (a negative size)
  // wrapped when cast to an unsigned: --height=-1 built a chart of 2^64
  // rows.
  const std::string events = "--events=" + edges_path_;
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"decompose", edges_path_, "--threads=abc"}, "--threads"},
          {{"decompose", edges_path_, "--threads=4x"}, "--threads"},
          {{"decompose", edges_path_, "--threads="}, "--threads"},
          {{"decompose", edges_path_, "--threads"}, "--threads"},
          {{"decompose", edges_path_, "--threads=99999999999999999999"},
           "--threads"},
          {{"decompose", edges_path_, "--threads=4294967297"}, "--threads"},
          {{"replay", edges_path_, events, "--batch=x"}, "--batch"},
          {{"replay", edges_path_, events, "--batch=99999999999999999999"},
           "--batch"},
          {{"replay", edges_path_, events, "--query-every=1.5"},
           "--query-every"},
          {{"plot", edges_path_, "--width=+80"}, "--width"},
          {{"verify", edges_path_, "--check-every= 1"}, "--check-every"},
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"), "--p=abc"},
           "--p"},
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"), "--p=0.5x"},
           "--p"},
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"), "--p=nan"},
           "--p"},
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"), "--n=1e3"},
           "--n"},
          {{"plot", edges_path_, "--width=-1"}, "--width"},
          {{"plot", edges_path_, "--height=-1"}, "--height"},
          {{"hierarchy", edges_path_, "--max-nodes=-5"}, "--max-nodes"},
          {{"templates", edges_path_, edges_path_, "--min-size=-1"},
           "--min-size"},
          // Generator sizes are range-checked before any generator runs:
          // --n=-1 asked for 2^32 vertices, --n=2^32+1 wrapped to 1, and
          // --scale outside 1..30 tripped R-MAT's scale check.
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"), "--n=-1"},
           "--n"},
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"),
            "--n=4294967297"},
           "--n"},
          {{"generate", "plc", "--out=" + TempPath("cli_nan.txt"), "--m=-1"},
           "--m"},
          {{"generate", "gnm", "--out=" + TempPath("cli_nan.txt"),
            "--m=4294967296"},
           "--m"},
          {{"generate", "rmat", "--out=" + TempPath("cli_nan.txt"),
            "--scale=31"},
           "--scale"},
          {{"generate", "rmat", "--out=" + TempPath("cli_nan.txt"),
            "--scale=-1"},
           "--scale"},
          {{"generate", "rmat", "--out=" + TempPath("cli_nan.txt"),
            "--scale=0"},
           "--scale"},
      };
  for (const auto& [args, flag] : cases) {
    std::string out, err;
    EXPECT_EQ(RunTool(args, &out, &err), 2) << args.back();
    EXPECT_NE(err.find("error: " + flag + " must be"), std::string::npos)
        << args.back() << ": " << err;
  }
  std::string out, err;
  RunTool({"plot", edges_path_, "--height=-1"}, &out, &err);
  EXPECT_NE(err.find("error: --height must be >= 0\n"), std::string::npos);
  RunTool({"generate", "rmat", "--out=" + TempPath("cli_nan.txt"),
           "--scale=31"},
          &out, &err);
  EXPECT_NE(err.find("error: --scale must be in 1..30 (got 31)\n"),
            std::string::npos);
  // In-range values still run; a zero size is legal.
  EXPECT_EQ(RunTool({"decompose", edges_path_, "--threads=2"}, &out), 0);
  EXPECT_EQ(RunTool({"plot", edges_path_, "--height=0"}, &out), 0);
  EXPECT_NE(out.find("(empty plot)"), std::string::npos);
  EXPECT_EQ(RunTool({"hierarchy", edges_path_, "--max-nodes=0"}, &out), 0);
  EXPECT_EQ(RunTool({"templates", edges_path_, edges_path_, "--min-size=0"},
                    &out),
            0);
  EXPECT_EQ(RunTool({"generate", "plc", "--out=" + TempPath("cli_ok.txt"),
                 "--n=50", "--p=0.25"},
                &out),
            0);
}

TEST_F(CliTest, CacheBuildLoadAndServe) {
  const std::string cache = TempPath("cli_cache.tkcg");
  std::string out, err;
  ASSERT_EQ(RunTool({"cache", "build", edges_path_, "--out=" + cache}, &out),
            0);
  EXPECT_NE(out.find("wrote " + cache), std::string::npos);
  ASSERT_EQ(RunTool({"cache", "load", cache}, &out), 0);
  EXPECT_NE(out.find("version=3"), std::string::npos);

  // Rows served from the cache are byte-identical to text ingest.
  std::string text_rows, cache_rows;
  ASSERT_EQ(RunTool({"decompose", edges_path_}, &text_rows), 0);
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--graph-cache=" + cache},
                &cache_rows, &err),
            0);
  EXPECT_EQ(DataRows(text_rows), DataRows(cache_rows));

  // Missing verb / unknown verb are usage errors.
  EXPECT_EQ(RunTool({"cache", "frobnicate", cache}, &out, &err), 2);
  EXPECT_NE(err.find("unknown cache subcommand"), std::string::npos);
  EXPECT_EQ(RunTool({"cache", "build", edges_path_}, &out, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// `cache build` writes the same .tkcg bytes at any --threads, and so does
// writing back the snapshot the cache loader freezes from them. The
// text carries reversed duplicates and self-loops, so the parallel dedup's
// duplicate branch is part of what is held fixed.
TEST_F(CliTest, CacheBuildBytesIndependentOfThreads) {
  const std::string text_path = TempPath("cli_cache_bytes_edges.txt");
  Rng rng(13);
  const Graph g = PowerLawCluster(600, 5, 0.4, rng);
  {
    std::ofstream text(text_path);
    WriteEdgeList(g, text);
    g.ForEachEdge([&](EdgeId e, const Edge& edge) {
      if (e % 3 == 0) text << edge.v << ' ' << edge.u << '\n';
    });
    text << "4 4\n17 17\n";
  }
  std::string bytes[2];
  const char* threads[2] = {"--threads=1", "--threads=4"};
  for (int i = 0; i < 2; ++i) {
    const std::string cache =
        TempPath("cli_cache_bytes_" + std::to_string(i) + ".tkcg");
    std::string out;
    ASSERT_EQ(RunTool({"cache", "build", text_path, "--out=" + cache,
                       threads[i]},
                      &out),
              0)
        << threads[i];
    bytes[i] = ReadFileBytes(cache);
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);

  CacheStatus status = CacheStatus::kOk;
  auto loaded =
      LoadGraphCache(TempPath("cli_cache_bytes_0.tkcg"), 1, &status);
  ASSERT_TRUE(loaded.has_value()) << CacheStatusName(status);
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  const std::string rewritten = TempPath("cli_cache_bytes_rewritten.tkcg");
  ASSERT_TRUE(WriteGraphCache(*loaded, rewritten));
  EXPECT_EQ(ReadFileBytes(rewritten), bytes[0]);
}

TEST_F(CliTest, GraphCacheMissBuildsThenHits) {
  const std::string cache = TempPath("cli_cache_miss.tkcg");
  std::remove(cache.c_str());
  std::string first, second, err;
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--graph-cache=" + cache,
                 "--log-level=info"},
                &first, &err),
            0);
  EXPECT_NE(err.find("cache.miss"), std::string::npos);
  EXPECT_NE(err.find("cache.written"), std::string::npos);
  ASSERT_EQ(RunTool({"decompose", edges_path_, "--graph-cache=" + cache,
                 "--log-level=info"},
                &second, &err),
            0);
  EXPECT_NE(err.find("cache.loaded"), std::string::npos);
  EXPECT_EQ(DataRows(first), DataRows(second));
}

TEST_F(CliTest, CorruptedGraphCacheIsHardErrorWithNamedReason) {
  const std::string cache = TempPath("cli_cache_corrupt.tkcg");
  std::string out, err;
  ASSERT_EQ(RunTool({"cache", "build", edges_path_, "--out=" + cache}, &out),
            0);
  {
    std::fstream file(cache, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(80);
    file.put('\x7f');
  }
  EXPECT_EQ(RunTool({"decompose", edges_path_, "--graph-cache=" + cache},
                &out, &err),
            2);
  EXPECT_NE(err.find("rejected: checksum_mismatch"), std::string::npos);
  EXPECT_EQ(RunTool({"cache", "load", cache}, &out, &err), 2);
  EXPECT_NE(err.find("checksum_mismatch"), std::string::npos);
}

TEST_F(CliTest, OlderVersionCachesRejected) {
  // Version 1 caches could store a vertex permutation; versions 1 and 2
  // stored the CSR arrays. A plain and a permuted v1 header and a v2
  // header are each refused by name, never served.
  const std::string cache = TempPath("cli_cache_old.tkcg");
  const std::pair<char, char> headers[] = {
      {'\1', '\0'}, {'\1', '\1'}, {'\2', '\0'}};
  for (const auto& [version, relabeled] : headers) {
    std::string out, err;
    ASSERT_EQ(RunTool({"cache", "build", edges_path_, "--out=" + cache},
                      &out),
              0);
    {
      // v1 header: magic[4] | u32 version | 3 × u64 counts | u32 relabeled.
      std::fstream file(cache, std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(4);
      file.put(version);
      file.seekp(32);
      file.put(relabeled);
    }
    EXPECT_EQ(RunTool({"decompose", edges_path_, "--graph-cache=" + cache},
                      &out, &err),
              2);
    EXPECT_NE(err.find("rejected: bad_version"), std::string::npos) << err;
    EXPECT_NE(err.find("tkc cache build"), std::string::npos) << err;
    EXPECT_EQ(RunTool({"cache", "load", cache}, &out, &err), 2);
    EXPECT_NE(err.find("bad_version"), std::string::npos) << err;
  }
}

TEST_F(CliTest, ReplayWithGraphCacheReportsCacheStats) {
  const std::string cache = TempPath("cli_cache_replay.tkcg");
  const std::string events = TempPath("cli_cache_replay_events.txt");
  {
    std::ofstream file(events);
    file << "+ 0 5\n+ 1 5\n- 0 1\n";
  }
  std::string out, err;
  ASSERT_EQ(RunTool({"cache", "build", edges_path_, "--out=" + cache}, &out),
            0);
  const std::string json = TempPath("cli_cache_replay.json");
  ASSERT_EQ(RunTool({"replay", edges_path_, "--events=" + events,
                 "--graph-cache=" + cache, "--verify",
                 "--json-out=" + json},
                &out, &err),
            0);
  EXPECT_NE(out.find("cache_hits=1"), std::string::npos);
  EXPECT_NE(out.find("verified=yes"), std::string::npos);
  std::ifstream file(json);
  std::stringstream buf;
  buf << file.rdbuf();
  auto doc = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* cache_json = doc->Find("cache");
  ASSERT_NE(cache_json, nullptr);
  EXPECT_EQ(cache_json->Find("hits")->Number(), 1.0);
  EXPECT_EQ(cache_json->Find("misses")->Number(), 0.0);
  EXPECT_EQ(cache_json->Find("checksum_failures")->Number(), 0.0);
}

TEST_F(CliTest, MetricsArtifactCarriesCacheCounters) {
  const std::string metrics = TempPath("cli_cache_metrics.json");
  std::string out;
  ASSERT_EQ(RunTool({"stats", edges_path_, "--metrics-out=" + metrics},
                &out),
            0);
  std::ifstream file(metrics);
  std::stringstream buf;
  buf << file.rdbuf();
  auto doc = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  // Pre-created at startup: present (and zero) even with no cache in play.
  const obs::JsonValue* counters = doc->FindPath("metrics.counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"cache.hits", "cache.misses", "cache.checksum_failures"}) {
    const obs::JsonValue* counter = counters->Find(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_EQ(counter->Number(), 0.0) << name;
  }
}

}  // namespace
}  // namespace tkc
