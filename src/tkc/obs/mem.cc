#include "tkc/obs/mem.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tkc/obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define TKC_HAVE_GETRUSAGE 1
#else
#define TKC_HAVE_GETRUSAGE 0
#endif

namespace tkc::obs {

namespace {

#if defined(__linux__)
// Parses "VmRSS:   1234 kB" style lines; returns 0 when the key is absent.
uint64_t StatusKb(const char* text, const char* key) {
  const char* line = std::strstr(text, key);
  if (line == nullptr) return 0;
  line += std::strlen(key);
  return std::strtoull(line, nullptr, 10);
}
#endif

}  // namespace

MemorySnapshot ReadMemorySnapshot() {
  MemorySnapshot snap;
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "re")) {
    char buf[4096];
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    snap.current_rss_bytes = StatusKb(buf, "VmRSS:") * 1024;
    snap.peak_rss_bytes = StatusKb(buf, "VmHWM:") * 1024;
    snap.available = snap.current_rss_bytes > 0 || snap.peak_rss_bytes > 0;
    if (snap.available) return snap;
  }
#endif
#if TKC_HAVE_GETRUSAGE
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS; both are peak-only.
#if defined(__APPLE__)
    snap.peak_rss_bytes = static_cast<uint64_t>(usage.ru_maxrss);
#else
    snap.peak_rss_bytes = static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
    snap.available = true;
  }
#endif
  return snap;
}

ScopedMemSpan::~ScopedMemSpan() {
  if (!span_.active()) return;
  const MemorySnapshot after = ReadMemorySnapshot();
  if (!after.available) return;

  auto& registry = MetricsRegistry::Global();
  registry.GetGauge("mem.current_rss_bytes")
      .Set(static_cast<double>(after.current_rss_bytes));
  registry.GetGauge("mem.peak_rss_bytes")
      .Set(static_cast<double>(after.peak_rss_bytes));

  span_.AddArg("rss_before_bytes", before_.current_rss_bytes);
  span_.AddArg("rss_after_bytes", after.current_rss_bytes);
  span_.AddArg("rss_peak_bytes", after.peak_rss_bytes);
}

}  // namespace tkc::obs
