#include "tkc/obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"

namespace tkc::obs {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local std::string tls_thread_name;  // NOLINT(runtime/string)

// Session ids are unique across *all* recorder instances, not per-recorder
// counters: a destroyed recorder's TLS cache entry must never validate
// against a new recorder that happens to reuse the same address.
std::atomic<uint64_t> g_session_counter{0};

// Cached track pointer per (recorder, session): re-resolved whenever a new
// session starts, so Reset/Start never leaves a thread writing into a
// dropped buffer.
struct TlsTrackRef {
  const TimelineRecorder* owner = nullptr;
  uint64_t session = 0;
  void* track = nullptr;
};
thread_local TlsTrackRef tls_track_ref;

}  // namespace

void SetTimelineThreadName(std::string name) {
  tls_thread_name = std::move(name);
  // Invalidate the cache so a rename before the first record of a session
  // takes effect even if the thread recorded in an earlier session.
  tls_track_ref.track = nullptr;
  tls_track_ref.owner = nullptr;
}

void TimelineRecorder::Start(size_t capacity_per_thread) {
  MutexLock lock(mu_);
  tracks_.clear();
  capacity_per_thread_.store(std::max<size_t>(capacity_per_thread, 1),
                             std::memory_order_relaxed);
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  session_.store(g_session_counter.fetch_add(1, std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  // The release store publishes the session state above to any thread whose
  // Record/NowNs acquires enabled_ afterwards.
  enabled_.store(true, std::memory_order_release);
}

void TimelineRecorder::Stop() {
  enabled_.store(false, std::memory_order_release);
}

void TimelineRecorder::Reset() {
  MutexLock lock(mu_);
  enabled_.store(false, std::memory_order_release);
  session_.store(g_session_counter.fetch_add(1, std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  tracks_.clear();
}

uint64_t TimelineRecorder::NowNs() const {
  uint64_t now = SteadyNowNs();
  const uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return now >= epoch ? now - epoch : 0;
}

TimelineRecorder::ThreadTrack* TimelineRecorder::TrackForThisThread() {
  uint64_t session = session_.load(std::memory_order_relaxed);
  if (tls_track_ref.owner == this && tls_track_ref.session == session &&
      tls_track_ref.track != nullptr) {
    return static_cast<ThreadTrack*>(tls_track_ref.track);
  }
  MutexLock lock(mu_);
  // Re-check the session under the lock: a Start/Reset racing with this
  // registration must not hand out a track from the dropped generation.
  session = session_.load(std::memory_order_relaxed);
  auto track = std::make_unique<ThreadTrack>();
  track->name = tls_thread_name.empty() ? "main" : tls_thread_name;
  track->events.reserve(capacity_per_thread_.load(std::memory_order_relaxed));
  tracks_.push_back(std::move(track));
  tls_track_ref = {this, session, tracks_.back().get()};
  return tracks_.back().get();
}

void TimelineRecorder::Record(std::string_view name, uint64_t start_ns,
                              uint64_t dur_ns,
                              const TimelineEvent::Arg* args,
                              size_t num_args) {
  if (!enabled()) return;
  ThreadTrack* track = TrackForThisThread();
  if (track->events.size() >=
      capacity_per_thread_.load(std::memory_order_relaxed)) {
    track->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  track->events.emplace_back();
  TimelineEvent& ev = track->events.back();
  size_t n = std::min(name.size(), sizeof(ev.name) - 1);
  std::memcpy(ev.name, name.data(), n);
  ev.name[n] = '\0';
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.num_args = static_cast<uint32_t>(
      std::min<size_t>(num_args, TimelineEvent::kMaxArgs));
  for (uint32_t i = 0; i < ev.num_args; ++i) ev.args[i] = args[i];
}

uint64_t TimelineRecorder::DroppedEvents() const {
  MutexLock lock(mu_);
  uint64_t dropped = 0;
  for (const auto& t : tracks_) {
    dropped += t->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

size_t TimelineRecorder::NumTracks() const {
  MutexLock lock(mu_);
  return tracks_.size();
}

size_t TimelineRecorder::NumEvents() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& t : tracks_) n += t->events.size();
  return n;
}

void TimelineRecorder::AppendTo(JsonValue& doc) const {
  MutexLock lock(mu_);

  // Deterministic track ids: "main" first, then (length, name) order so
  // numeric suffixes sort naturally (worker-2 before worker-10).
  std::vector<const ThreadTrack*> ordered;
  ordered.reserve(tracks_.size());
  for (const auto& t : tracks_) ordered.push_back(t.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const ThreadTrack* a, const ThreadTrack* b) {
              const bool a_main = a->name == "main";
              const bool b_main = b->name == "main";
              if (a_main != b_main) return a_main;
              if (a->name.size() != b->name.size()) {
                return a->name.size() < b->name.size();
              }
              return a->name < b->name;
            });

  uint64_t dropped = 0;
  JsonValue tracks = JsonValue::Array();
  for (size_t tid = 0; tid < ordered.size(); ++tid) {
    const uint64_t track_dropped =
        ordered[tid]->dropped.load(std::memory_order_relaxed);
    dropped += track_dropped;
    tracks.Push(JsonValue::Object()
                    .Set("tid", static_cast<uint64_t>(tid))
                    .Set("name", ordered[tid]->name)
                    .Set("events",
                         static_cast<uint64_t>(ordered[tid]->events.size()))
                    .Set("dropped", track_dropped));
  }

  JsonValue events = JsonValue::Array();
  for (size_t tid = 0; tid < ordered.size(); ++tid) {
    // Chrome-trace thread-name metadata record, one per track.
    events.Push(JsonValue::Object()
                    .Set("ph", "M")
                    .Set("name", "thread_name")
                    .Set("pid", 0)
                    .Set("tid", static_cast<uint64_t>(tid))
                    .Set("args", JsonValue::Object().Set(
                                     "name", ordered[tid]->name)));
    for (const TimelineEvent& ev : ordered[tid]->events) {
      JsonValue out = JsonValue::Object();
      out.Set("name", ev.name)
          .Set("ph", "X")
          .Set("pid", 0)
          .Set("tid", static_cast<uint64_t>(tid))
          .Set("ts", static_cast<double>(ev.start_ns) / 1e3)
          .Set("dur", static_cast<double>(ev.dur_ns) / 1e3);
      if (ev.num_args > 0) {
        JsonValue args = JsonValue::Object();
        for (uint32_t i = 0; i < ev.num_args; ++i) {
          args.Set(ev.args[i].key, ev.args[i].value);
        }
        out.Set("args", std::move(args));
      }
      events.Push(std::move(out));
    }
  }

  doc.Set("clock", "steady")
      .Set("time_unit", "us")
      .Set("capacity_per_thread",
           static_cast<uint64_t>(
               capacity_per_thread_.load(std::memory_order_relaxed)))
      .Set("dropped_events", dropped)
      .Set("tracks", std::move(tracks))
      .Set("traceEvents", std::move(events));
}

JsonValue TimelineRecorder::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "tkc.trace.v1");
  AppendTo(doc);
  return doc;
}

TimelineRecorder& TimelineRecorder::Global() {
  // Leaky singleton: worker threads may record during shutdown.
  // tkc-lint: allow(raw-new-delete)
  static TimelineRecorder* recorder = new TimelineRecorder();
  return *recorder;
}

bool WriteTraceArtifact(const std::string& path, std::string_view source_key,
                        std::string_view source_name, int exit_code) {
  TimelineRecorder& recorder = TimelineRecorder::Global();
  recorder.Stop();
  const uint64_t dropped = recorder.DroppedEvents();
  if (dropped > 0) {
    MetricsRegistry::Global()
        .GetCounter("trace.timeline.dropped_events")
        .Add(dropped);
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "tkc.trace.v1")
      .Set(std::string(source_key), std::string(source_name))
      .Set("exit_code", exit_code);
  const MemorySnapshot mem = ReadMemorySnapshot();
  doc.Set("mem", JsonValue::Object()
                     .Set("available", mem.available)
                     .Set("peak_rss_bytes", mem.peak_rss_bytes)
                     .Set("current_rss_bytes", mem.current_rss_bytes));
  recorder.AppendTo(doc);

  std::ofstream file(path);
  file << doc.Dump(2) << '\n';
  return file.good();
}

}  // namespace tkc::obs
