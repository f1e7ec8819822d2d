#ifndef TKC_OBS_MEM_H_
#define TKC_OBS_MEM_H_

#include <cstdint>
#include <string_view>

#include "tkc/obs/timeline.h"

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
/// before/after/peak are attached to the span's slice and the
/// `mem.current_rss_bytes` / `mem.peak_rss_bytes` gauges are refreshed.
/// Only while a recording session is active: sampling reads /proc twice
/// per span — use at phase granularity, not in loops.
class ScopedMemSpan {
 public:
  explicit ScopedMemSpan(std::string_view name) : span_(name) {
    if (span_.active()) before_ = ReadMemorySnapshot();
  }
  ~ScopedMemSpan();

  ScopedMemSpan(const ScopedMemSpan&) = delete;
  ScopedMemSpan& operator=(const ScopedMemSpan&) = delete;

 private:
  TimelineScope span_;
  MemorySnapshot before_;
};

}  // namespace tkc::obs

/// Opens a phase span that also accounts the phase's memory footprint.
#define TKC_SPAN_MEM(name) \
  ::tkc::obs::ScopedMemSpan TKC_SPAN_CONCAT(tkc_mem_span_, __LINE__)(name)

#endif  // TKC_OBS_MEM_H_
