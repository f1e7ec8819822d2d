#ifndef TKC_OBS_TIMELINE_H_
#define TKC_OBS_TIMELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tkc/obs/json.h"
#include "tkc/util/thread_annotations.h"

namespace tkc::obs {

/// One timeline slice. Fixed-size POD so opening a span is a plain write
/// into a preallocated per-thread buffer — no allocation, no locking, no
/// pointer chasing on the hot path. Names and arg keys longer than the
/// inline capacity are truncated (they are code literals; tkc-lint
/// TKC-L030 keeps them within it).
struct TimelineEvent {
  static constexpr size_t kNameCapacity = 48;
  static constexpr size_t kKeyCapacity = 24;
  static constexpr size_t kMaxArgs = 6;
  /// `dur_ns` of a slot whose span has not closed yet.
  static constexpr uint64_t kOpen = UINT64_MAX;

  struct Arg {
    char key[kKeyCapacity];
    uint64_t value;
  };

  char name[kNameCapacity];
  uint64_t start_ns;  // relative to the recording session's Start()
  uint64_t dur_ns;    // kOpen until the span closes
  uint32_t depth;     // spans of this session still open around it
  uint32_t num_args;
  Arg args[kMaxArgs];
};

/// The one span mechanism. Records timestamped slices into bounded
/// per-thread buffers and exports them twice: as Chrome-trace JSON (the
/// `tkc.trace.v1` body; loadable in chrome://tracing and
/// https://ui.perfetto.dev) and folded into the aggregate phase tree of the
/// `tkc.metrics.v1` / `tkc.bench.v1` artifacts. Disabled by default: when
/// no session is active every TKC_SPAN costs one atomic load. The CLI and
/// the bench reporters start a session when an artifact is requested.
///
/// Each recording thread owns one track: a fixed-capacity event vector it
/// alone appends to. A span reserves its slot when it opens and fills it
/// when it closes, so slots are in open order, a recorded slice always has
/// its ancestors recorded, and a full buffer drops (and counts) only the
/// spans opened after it filled — never reallocates. Worker threads are
/// named via SetTimelineThreadName (the ThreadPool registers
/// "pool.worker-N"); unnamed threads record as "main". Export must happen
/// after the recorded work quiesced (the pool's fork/join barrier provides
/// the happens-before edge; Stop() then export is the intended sequence).
class TimelineRecorder {
 public:
  static constexpr size_t kDefaultCapacityPerThread = size_t{1} << 16;

  /// Begins a session: drops previous tracks, re-arms the epoch, enables
  /// recording. `capacity_per_thread` bounds each track's event count.
  void Start(size_t capacity_per_thread = kDefaultCapacityPerThread);
  /// Disables recording; recorded tracks stay readable until Reset/Start.
  void Stop();
  /// Stops and drops all tracks.
  void Reset();

  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Nanoseconds since the current session's Start() (steady clock).
  uint64_t NowNs() const;

  /// Total events dropped across all tracks because a buffer filled up.
  uint64_t DroppedEvents() const;
  /// Number of tracks (threads that opened at least one span).
  size_t NumTracks() const;
  /// Total events currently buffered across all tracks.
  size_t NumEvents() const;

  /// Sets `clock`, `capacity_per_thread`, `dropped_events`, `tracks`, and
  /// `traceEvents` on `doc`. Track ids are assigned deterministically:
  /// "main" is tid 0, the remaining tracks follow in (length, name) order,
  /// so worker-2 sorts before worker-10 and ids are stable across runs.
  /// Spans still open are left out.
  void AppendTo(JsonValue& doc) const;

  /// Convenience: `{"schema":"tkc.trace.v1", ...AppendTo fields...}`.
  JsonValue ToJson() const;

  /// The aggregate phase tree, folded from the tracks named "main": the
  /// slices with the same parent path are one node, with `calls` = their
  /// number, `seconds` = the sum of their durations and `counters` = their
  /// args summed by key. An array of
  /// {"name","calls","seconds","counters"?,"children"?} nodes, children
  /// in first-seen order. Worker tracks stay timeline-only.
  JsonValue PhaseTree() const;

  /// Process-wide recorder used by TKC_SPAN / TimelineScope.
  static TimelineRecorder& Global();

 private:
  friend class TimelineScope;

  struct ThreadTrack {
    std::string name;
    // Appended to only by the owning thread, with no lock: each track is a
    // single-writer buffer, and readers (AppendTo/NumEvents) require the
    // recorded work to have quiesced first — the class contract the
    // analysis cannot express, so it is stated here instead.
    std::vector<TimelineEvent> events;  // reserved once, never reallocated
    // Incremented lock-free by the owning thread, summed by DroppedEvents
    // on any thread: atomic so an export racing a straggling span reads a
    // coherent count.
    std::atomic<uint64_t> dropped{0};
  };

  uint64_t session() const {
    return session_.load(std::memory_order_relaxed);
  }
  /// Reserves the calling thread's next slot for a span opening now;
  /// nullptr (counted as dropped) when the track is full.
  TimelineEvent* Open(std::string_view name, uint32_t depth);
  ThreadTrack* TrackForThisThread();

  // Session state read on the lock-free record path (Open/NowNs consult
  // these on every span, from any thread) and written only by Start/Reset:
  // atomics with the enabled_ release/acquire pair providing the
  // happens-before edge for sessions started before the recorded work.
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> session_{0};
  std::atomic<uint64_t> epoch_ns_{0};  // steady-clock ns at Start()
  std::atomic<size_t> capacity_per_thread_{kDefaultCapacityPerThread};

  // The track table itself (registration + export) is lock-protected; the
  // per-track buffers above are deliberately outside the guard.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadTrack>> tracks_ TKC_GUARDED_BY(mu_);
};

/// Names the calling thread's timeline track (applies to tracks created
/// after the call). The ThreadPool uses this for its workers; the default
/// is "main".
void SetTimelineThreadName(std::string name);

/// RAII span on the global recorder: one slice on the calling thread's
/// track, covering the scope. Safe on any thread. Prefer the TKC_SPAN
/// macro; name the scope only to attach args.
class TimelineScope {
 public:
  explicit TimelineScope(std::string_view name) {
    if (TimelineRecorder::Global().enabled()) Open(name);
  }
  ~TimelineScope() {
    if (active_) Close();
  }
  TimelineScope(const TimelineScope&) = delete;
  TimelineScope& operator=(const TimelineScope&) = delete;

  /// True when a session was active at open: the span records (or counts
  /// as dropped).
  bool active() const { return active_; }

  /// Adds `value` to arg `key` of this slice; repeated keys sum. Args past
  /// TimelineEvent::kMaxArgs distinct keys are ignored.
  void AddArg(std::string_view key, uint64_t value);

 private:
  void Open(std::string_view name);
  void Close();

  bool active_ = false;
  uint32_t depth_ = 0;
  uint64_t session_ = 0;
  TimelineEvent* event_ = nullptr;  // nullptr: dropped or idle
  TimelineScope* parent_ = nullptr;  // next open span out, this thread
};

/// Adds `delta` to arg `key` of the innermost open span on the calling
/// thread; a no-op when none is open. Backs TKC_SPAN_COUNTER.
void AddSpanCounter(std::string_view key, uint64_t delta);

/// Stops the global recorder and writes the complete `tkc.trace.v1`
/// artifact to `path`: schema, `{source_key: source_name}`, `exit_code`,
/// the final `mem` block (peak RSS), and the timeline body. Shared by the
/// CLI and every bench binary. Returns false when the file cannot be
/// written.
bool WriteTraceArtifact(const std::string& path, std::string_view source_key,
                        std::string_view source_name, int exit_code);

}  // namespace tkc::obs

#define TKC_SPAN_CONCAT_INNER(a, b) a##b
#define TKC_SPAN_CONCAT(a, b) TKC_SPAN_CONCAT_INNER(a, b)
/// Opens a phase span covering the rest of the enclosing scope.
#define TKC_SPAN(name) \
  ::tkc::obs::TimelineScope TKC_SPAN_CONCAT(tkc_span_, __LINE__)(name)
/// Adds `delta` to counter `key` on the innermost open span.
#define TKC_SPAN_COUNTER(key, delta) ::tkc::obs::AddSpanCounter(key, delta)

#endif  // TKC_OBS_TIMELINE_H_
