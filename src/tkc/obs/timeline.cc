#include "tkc/obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/check.h"

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

// The innermost open span on this thread: the target of TKC_SPAN_COUNTER.
thread_local TimelineScope* tls_innermost = nullptr;

void CopyTruncated(std::string_view text, char* out, size_t capacity) {
  const size_t n = std::min(text.size(), capacity - 1);
  std::memcpy(out, text.data(), n);
  out[n] = '\0';
}

}  // namespace

void SetTimelineThreadName(std::string name) {
  tls_thread_name = std::move(name);
  // Invalidate the cache so a rename before the first record of a session
  // takes effect even if the thread recorded in an earlier session.
  tls_track_ref.track = nullptr;
  tls_track_ref.owner = nullptr;
}

void TimelineRecorder::Start(size_t bytes_per_thread) {
  MutexLock lock(mu_);
  tracks_.clear();
  capacity_per_thread_.store(
      std::max<size_t>(bytes_per_thread / sizeof(TimelineEvent), 1),
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
  tracks_.push_back(std::move(track));
  tls_track_ref = {this, session, tracks_.back().get()};
  return tracks_.back().get();
}

TimelineEvent* TimelineRecorder::Open(std::string_view name, uint32_t depth) {
  ThreadTrack* track = TrackForThisThread();
  if (track->size >= capacity_per_thread_.load(std::memory_order_relaxed)) {
    track->dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (track->size == track->blocks.size() * kBlockEvents) {
    track->blocks.push_back(
        std::make_unique_for_overwrite<TimelineEvent[]>(kBlockEvents));
  }
  TimelineEvent& ev = track->at(track->size++);
  CopyTruncated(name, ev.name, sizeof(ev.name));
  ev.depth = depth;
  ev.num_args = 0;
  ev.label_mask = 0;
  ev.dur_ns = TimelineEvent::kOpen;
  ev.start_ns = NowNs();
  return &ev;
}

void TimelineScope::Open(std::string_view name) {
  TimelineRecorder& recorder = TimelineRecorder::Global();
  active_ = true;
  session_ = recorder.session();
  parent_ = tls_innermost;
  depth_ = parent_ != nullptr && parent_->session_ == session_
               ? parent_->depth_ + 1
               : 0;
  event_ = recorder.Open(name, depth_);
  tls_innermost = this;
}

void TimelineScope::Close() {
  tls_innermost = parent_;
  TimelineRecorder& recorder = TimelineRecorder::Global();
  // A Start/Reset while this span was open dropped its slot's track.
  if (event_ == nullptr || recorder.session() != session_) return;
  event_->dur_ns = recorder.NowNs() - event_->start_ns;
}

void TimelineScope::AddArg(std::string_view key, uint64_t value) {
  SetArg(key, value, /*label=*/false);
}

void TimelineScope::AddLabel(std::string_view key, uint64_t value) {
  SetArg(key, value, /*label=*/true);
}

void TimelineScope::SetArg(std::string_view key, uint64_t value,
                           bool label) {
  if (event_ == nullptr ||
      TimelineRecorder::Global().session() != session_) {
    return;
  }
  key = key.substr(0, TimelineEvent::kKeyCapacity - 1);
  for (uint32_t i = 0; i < event_->num_args; ++i) {
    TimelineEvent::Arg& arg = event_->args[i];
    if (key == arg.key) {
      arg.value = label ? value : arg.value + value;
      return;
    }
  }
  if (event_->num_args == TimelineEvent::kMaxArgs) return;
  if (label) event_->label_mask |= uint16_t{1} << event_->num_args;
  TimelineEvent::Arg& arg = event_->args[event_->num_args++];
  CopyTruncated(key, arg.key, sizeof(arg.key));
  arg.value = value;
}

void AddSpanCounter(std::string_view key, uint64_t delta) {
  if (tls_innermost != nullptr) tls_innermost->AddArg(key, delta);
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
  for (const auto& t : tracks_) n += t->size;
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
                    .Set("events", static_cast<uint64_t>(ordered[tid]->size))
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
    for (size_t i = 0; i < ordered[tid]->size; ++i) {
      const TimelineEvent& ev = ordered[tid]->at(i);
      if (ev.dur_ns == TimelineEvent::kOpen) continue;
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

namespace {

// One node of the folded phase tree; exists only during PhaseTree().
struct FoldNode {
  std::string name;
  uint64_t calls = 0;
  uint64_t ns = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::unique_ptr<FoldNode>> children;

  FoldNode* Child(std::string_view child_name) {
    for (const auto& c : children) {
      if (c->name == child_name) return c.get();
    }
    children.push_back(std::make_unique<FoldNode>());
    children.back()->name = std::string(child_name);
    return children.back().get();
  }

  void Add(const TimelineEvent& ev) {
    calls += 1;
    ns += ev.dur_ns;
    for (uint32_t i = 0; i < ev.num_args; ++i) {
      if (ev.label_mask & (1u << i)) continue;
      const std::string_view key = ev.args[i].key;
      auto it = std::find_if(counters.begin(), counters.end(),
                             [&](const auto& kv) { return kv.first == key; });
      if (it == counters.end()) {
        counters.emplace_back(std::string(key), ev.args[i].value);
      } else {
        it->second += ev.args[i].value;
      }
    }
  }

  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    out.Set("name", name)
        .Set("calls", calls)
        .Set("seconds", static_cast<double>(ns) / 1e9);
    if (!counters.empty()) {
      JsonValue c = JsonValue::Object();
      for (const auto& [k, v] : counters) c.Set(k, v);
      out.Set("counters", std::move(c));
    }
    if (!children.empty()) {
      JsonValue kids = JsonValue::Array();
      for (const auto& child : children) kids.Push(child->ToJson());
      out.Set("children", std::move(kids));
    }
    return out;
  }
};

}  // namespace

JsonValue TimelineRecorder::PhaseTree() const {
  FoldNode root;
  MutexLock lock(mu_);
  for (const auto& track : tracks_) {
    if (track->name != "main") continue;
    // Slots are in open order, so each slice's parent is the last slice
    // seen one level up: path[d] is the node of the open slice at depth d.
    std::vector<FoldNode*> path;
    for (size_t i = 0; i < track->size; ++i) {
      const TimelineEvent& ev = track->at(i);
      // Every later slot on the track opened inside a span still open.
      if (ev.dur_ns == TimelineEvent::kOpen) break;
      TKC_CHECK_MSG(ev.depth <= path.size(),
                    "timeline slice recorded without its parent");
      path.resize(ev.depth);
      FoldNode* node = (path.empty() ? &root : path.back())->Child(ev.name);
      node->Add(ev);
      path.push_back(node);
    }
  }
  JsonValue out = JsonValue::Array();
  for (const auto& child : root.children) out.Push(child->ToJson());
  return out;
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
