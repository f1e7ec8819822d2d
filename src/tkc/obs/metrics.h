#ifndef TKC_OBS_METRICS_H_
#define TKC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "tkc/obs/json.h"
#include "tkc/util/thread_annotations.h"

namespace tkc::obs {

/// Monotonic counter. Handles returned by MetricsRegistry stay valid for
/// the registry's lifetime (Reset zeroes values, it never invalidates).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Named metric store. Get* calls find-or-create and are safe to race;
/// returned references remain valid until the registry is destroyed.
/// Naming convention (docs/observability.md): dotted lower_snake paths,
/// `<layer>.<what>[.<detail>]`, e.g. "core.peel.edges_peeled".
class MetricsRegistry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);

  /// Zeroes every metric, keeping all handles valid.
  void Reset();

  /// {"counters":{name:value,..},"gauges":{name:value,..}} with names
  /// sorted for stable artifacts.
  JsonValue ToJson() const;

  /// Process-wide registry used by the library's instrumentation.
  static MetricsRegistry& Global();

 private:
  // The maps are guarded; the metric objects they point to are not — each
  // is internally atomic, and handles outlive any Get* critical section by
  // design (find-or-create pins the unique_ptr for the registry lifetime).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TKC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TKC_GUARDED_BY(mu_);
};

}  // namespace tkc::obs

#endif  // TKC_OBS_METRICS_H_
