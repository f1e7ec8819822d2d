#ifndef TKC_OBS_MEM_H_
#define TKC_OBS_MEM_H_

#include <cstdint>
#include <string_view>

#include "tkc/obs/trace.h"

namespace tkc::obs {

/// Process memory reading. On Linux this parses /proc/self/status
/// (VmRSS / VmHWM); elsewhere it falls back to getrusage peak-only, and
/// `available` is false when neither source works.
struct MemorySnapshot {
  bool available = false;
  uint64_t current_rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;
};

MemorySnapshot ReadMemorySnapshot();

/// TKC_SPAN plus per-phase memory accounting: on scope exit the RSS
/// before/after/peak are attached to the aggregated span node and the
/// timeline slice, the `mem.current_rss_bytes` / `mem.peak_rss_bytes`
/// gauges are refreshed, and the phase's RSS growth lands in the
/// `mem.phase.rss_growth_bytes` histogram. Sampling reads /proc twice per
/// span — use at phase granularity, not in loops.
class ScopedMemSpan {
 public:
  ScopedMemSpan(PhaseTracer& tracer, std::string_view name)
      : span_(tracer, name), before_(ReadMemorySnapshot()) {}

  ~ScopedMemSpan();

  ScopedMemSpan(const ScopedMemSpan&) = delete;
  ScopedMemSpan& operator=(const ScopedMemSpan&) = delete;

 private:
  void Attach(std::string_view key, uint64_t value);

  ScopedSpan span_;
  MemorySnapshot before_;
};

}  // namespace tkc::obs

#if defined(TKC_DISABLE_TRACING)
#define TKC_SPAN_MEM(name)
#else
/// Opens a phase span that also accounts the phase's memory footprint.
#define TKC_SPAN_MEM(name)                                            \
  ::tkc::obs::ScopedMemSpan TKC_SPAN_CONCAT(tkc_mem_span_, __LINE__)( \
      ::tkc::obs::PhaseTracer::Global(), name)
#endif

#endif  // TKC_OBS_MEM_H_
