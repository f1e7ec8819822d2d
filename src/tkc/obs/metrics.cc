#include "tkc/obs/metrics.h"

namespace tkc::obs {

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
}

JsonValue MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : counters_) counters.Set(name, c->Value());
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, g] : gauges_) gauges.Set(name, g->Value());
  return JsonValue::Object()
      .Set("counters", std::move(counters))
      .Set("gauges", std::move(gauges));
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaky singleton: metrics may be touched from atexit paths after
  // static destruction begins. tkc-lint: allow(raw-new-delete)
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace tkc::obs
