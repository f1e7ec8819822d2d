#ifndef TKC_BENCH_BENCH_COMMON_H_
#define TKC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "tkc/gen/datasets.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/json.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"
#include "tkc/util/timer.h"

namespace tkc::bench {

/// Shared CLI contract for every bench binary:
///   --size-factor=<f>  scale every dataset's vertex count by f
///   --quick            shorthand for --size-factor=0.05 (smoke run)
///   --seed=<n>         base RNG seed (default 2012, the paper's year)
///   --json-out=<file>  also write a machine-readable result artifact
///   --trace-out=<file> record a Chrome-trace timeline of the run
///   --threads=<n>      workers for the parallel kernels (0 = hardware
///                      default, 1 = serial; results are identical)
struct BenchConfig {
  double size_factor = 1.0;
  uint64_t seed = 2012;
  std::string json_out;
  std::string trace_out;
  int threads = 0;
};

inline void PrintBenchUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--size-factor=F] [--quick] [--seed=N] "
               "[--json-out=FILE] [--trace-out=FILE] [--threads=N]\n",
               argv0);
}

/// Strict parse: an unrecognized argument prints usage and exits non-zero
/// (silently ignored flags have burned too many benchmark runs).
inline BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--size-factor=", 14) == 0) {
      cfg.size_factor = std::atof(arg + 14);
    } else if (std::strcmp(arg, "--quick") == 0) {
      cfg.size_factor = 0.05;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      cfg.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
      cfg.json_out = arg + 11;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      cfg.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      cfg.threads = std::atoi(arg + 10);
      if (cfg.threads < 0) {
        std::fprintf(stderr, "--threads must be >= 0\n");
        std::exit(2);
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintBenchUsage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      PrintBenchUsage(argv[0]);
      std::exit(2);
    }
  }
  SetDefaultThreads(cfg.threads == 0 ? HardwareThreads() : cfg.threads);
  return cfg;
}

/// Directory where benches drop SVG/CSV artifacts (created on demand).
inline std::string ArtifactDir() {
  std::filesystem::path dir = "bench_artifacts";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

/// Fixed-width table printer for paper-style result tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::string cell = cells[i];
      int w = widths_[i];
      if (static_cast<int>(cell.size()) > w) cell.resize(w);
      line += cell + std::string(w - cell.size(), ' ') + "  ";
    }
    std::printf("%s\n", line.c_str());
  }

  void Rule() const {
    size_t total = 0;
    for (int w : widths_) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
  }

 private:
  std::vector<int> widths_;
};

inline std::string Fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string FmtCount(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// One-line graph summary used as the header of every experiment.
inline void PrintGraphSummary(const std::string& name, const Graph& g) {
  std::printf("[%s] |V|=%u |E|=%zu triangles=%llu\n", name.c_str(),
              g.NumVertices(), g.NumEdges(),
              static_cast<unsigned long long>(CountTriangles(CsrGraph(g))));
}

/// Machine-readable companion to the human tables: collects result rows and
/// (on Finish, when --json-out was given) writes the tkc.bench.v1 artifact —
/// run config, the rows, a dump of the global metrics registry, and the
/// phase tree folded from the run's spans. This is the feed for the BENCH_*.json perf trajectory.
///
/// Construction resets the global registry and recorder so the dump
/// describes exactly this bench process.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchConfig& cfg)
      : bench_name_(std::move(bench_name)), cfg_(cfg),
        rows_(obs::JsonValue::Array()), notes_(obs::JsonValue::Object()) {
    obs::MetricsRegistry::Global().Reset();
    // The reset wiped the gauge ParseArgs set; restore it so the artifact
    // records the worker count the run actually used.
    obs::MetricsRegistry::Global().GetGauge("tkc.threads")
        .Set(DefaultThreads());
    // Record spans only for an artifact that reads them: the timeline
    // (--trace-out) or the phase tree folded into --json-out.
    if (!cfg_.json_out.empty() || !cfg_.trace_out.empty()) {
      obs::TimelineRecorder::Global().Start();
    } else {
      obs::TimelineRecorder::Global().Reset();
    }
  }

  /// Appends one result row (typically one per dataset/table line).
  void AddRow(obs::JsonValue row) { rows_.Push(std::move(row)); }

  /// Attaches a top-level key (artifact paths, derived aggregates, ...).
  void Note(const std::string& key, obs::JsonValue value) {
    notes_.Set(key, std::move(value));
  }

  /// Writes the artifacts --json-out / --trace-out asked for. Returns
  /// `code` so benches can end with `return report.Finish(0);`.
  int Finish(int code = 0) {
    obs::TimelineRecorder& recorder = obs::TimelineRecorder::Global();
    recorder.Stop();
    if (!cfg_.trace_out.empty()) {
      if (obs::WriteTraceArtifact(cfg_.trace_out, "bench", bench_name_,
                                  code)) {
        std::printf("wrote %s\n", cfg_.trace_out.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     cfg_.trace_out.c_str());
        if (code == 0) code = 2;
      }
    }
    if (cfg_.json_out.empty()) return code;
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema", "tkc.bench.v1")
        .Set("bench", bench_name_)
        .Set("size_factor", cfg_.size_factor)
        .Set("seed", cfg_.seed)
        .Set("threads", static_cast<int64_t>(DefaultThreads()))
        .Set("total_seconds", total_.Seconds())
        .Set("exit_code", code);
    for (auto& [key, value] : notes_.Members()) {
      doc.Set(key, value);
    }
    doc.Set("rows", std::move(rows_))
        .Set("metrics", obs::MetricsRegistry::Global().ToJson())
        .Set("trace", recorder.PhaseTree())
        .Set("dropped_events", recorder.DroppedEvents());
    std::ofstream file(cfg_.json_out);
    file << doc.Dump(2) << '\n';
    if (!file.good()) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   cfg_.json_out.c_str());
      return code == 0 ? 2 : code;
    }
    std::printf("wrote %s\n", cfg_.json_out.c_str());
    return code;
  }

 private:
  std::string bench_name_;
  BenchConfig cfg_;
  Timer total_;
  obs::JsonValue rows_;
  obs::JsonValue notes_;
};

}  // namespace tkc::bench

#endif  // TKC_BENCH_BENCH_COMMON_H_
