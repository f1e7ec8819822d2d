#include "tkc/io/parallel_ingest.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "tkc/io/tokenizer.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"

namespace tkc {

MappedFile::~MappedFile() {
  if (mapped_ && data_ != nullptr) {
    munmap(const_cast<char*>(data_), size_);
  }
}

bool MappedFile::Open(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st{};
  if (fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) {
    close(fd);
    return false;
  }
  auto& registry = obs::MetricsRegistry::Global();
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    void* map = mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      close(fd);
      data_ = static_cast<const char*>(map);
      size_ = static_cast<size_t>(st.st_size);
      mapped_ = true;
      registry.GetCounter("io.parse.mmap_files").Add(1);
      return true;
    }
  }
  // Fallback: read(2) the stream into an owned buffer (empty files, pipes,
  // filesystems that refuse the mapping).
  owned_.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = read(fd, buf, sizeof(buf));
    if (got < 0) {
      close(fd);
      return false;
    }
    if (got == 0) break;
    owned_.insert(owned_.end(), buf, buf + got);
  }
  close(fd);
  data_ = owned_.data();
  size_ = owned_.size();
  mapped_ = false;
  registry.GetCounter("io.parse.read_fallbacks").Add(1);
  return true;
}

namespace {

// Newline-aligned chunk boundaries: strictly increasing positions with
// bounds[0] == 0 and bounds.back() == text.size(), every interior boundary
// just past a '\n'. Each input line lands in exactly one chunk, so chunk
// line counts sum to the file's line count and prefix sums globalize the
// per-chunk malformed line numbers.
std::vector<size_t> ChunkBoundaries(std::string_view text, int chunks) {
  std::vector<size_t> bounds{0};
  for (int t = 1; t < chunks; ++t) {
    size_t target = text.size() / static_cast<size_t>(chunks) *
                    static_cast<size_t>(t);
    if (target <= bounds.back()) target = bounds.back();
    const size_t nl = text.find('\n', target);
    const size_t boundary = nl == std::string_view::npos ? text.size() : nl + 1;
    if (boundary > bounds.back() && boundary < text.size()) {
      bounds.push_back(boundary);
    }
  }
  bounds.push_back(text.size());
  return bounds;
}

struct EdgeRow {
  VertexId u;
  VertexId v;
};

struct EdgeChunk {
  std::vector<EdgeRow> rows;  // kData rows in file order (unnormalized)
  EdgeListStats stats;        // line numbers are chunk-local (1-based)
};

struct EventChunk {
  std::vector<EdgeEvent> events;
  EventListStats stats;
};

void ParseEdgeChunk(std::string_view chunk, EdgeChunk* out) {
  LineCursor cursor(chunk);
  std::string_view line;
  while (cursor.Next(&line)) {
    ++out->stats.lines;
    VertexId u = kInvalidVertex, v = kInvalidVertex;
    switch (ClassifyEdgeLine(line, &u, &v)) {
      case LineClass::kComment:
        ++out->stats.comment_lines;
        break;
      case LineClass::kMalformed:
        ++out->stats.malformed_lines;
        if (out->stats.malformed_line_numbers.size() <
            kMaxRecordedMalformedLines) {
          out->stats.malformed_line_numbers.push_back(cursor.line_number());
        }
        break;
      case LineClass::kSelfLoop:
        ++out->stats.self_loops;
        break;
      case LineClass::kData:
        out->rows.push_back(EdgeRow{u, v});
        break;
    }
  }
}

void ParseEventChunk(std::string_view chunk, EventChunk* out) {
  LineCursor cursor(chunk);
  std::string_view line;
  while (cursor.Next(&line)) {
    ++out->stats.lines;
    EdgeEvent ev{};
    switch (ClassifyEventLine(line, &ev)) {
      case LineClass::kComment:
        ++out->stats.comment_lines;
        break;
      case LineClass::kMalformed:
        ++out->stats.malformed_lines;
        if (out->stats.malformed_line_numbers.size() <
            kMaxRecordedMalformedLines) {
          out->stats.malformed_line_numbers.push_back(cursor.line_number());
        }
        break;
      case LineClass::kSelfLoop:
        ++out->stats.self_loops;
        break;
      case LineClass::kData:
        out->events.push_back(ev);
        break;
    }
  }
}

void EmitParseCounters(std::string_view text, size_t chunks) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("io.parse.bytes").Add(text.size());
  registry.GetCounter("io.parse.chunks").Add(chunks);
}

// Folds chunk-local line accounting into `total`, globalizing the recorded
// malformed line numbers via the running line prefix. Shared by the edge
// and event merges (the structs only differ in their row tallies).
template <typename StatsT>
void MergeLineStats(const StatsT& chunk, uint64_t line_base, StatsT* total) {
  for (const uint64_t line : chunk.malformed_line_numbers) {
    if (total->malformed_line_numbers.size() < kMaxRecordedMalformedLines) {
      total->malformed_line_numbers.push_back(line_base + line);
    }
  }
  total->lines += chunk.lines;
  total->comment_lines += chunk.comment_lines;
  total->malformed_lines += chunk.malformed_lines;
  total->self_loops += chunk.self_loops;
}

// Flat open-addressing set over packed (min,max) endpoint keys. The dedup
// loop is the pipeline's serial fraction, and std::unordered_map's
// per-node allocations made it ~90% of parse time at 1M rows; linear
// probing over one power-of-two array is several times faster and
// allocation-free after construction.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    mask_ = cap - 1;
    keys_.assign(cap, kEmpty);
  }

  /// True iff `key` was absent (and is now inserted).
  bool Insert(uint64_t key) {
    size_t slot = Hash(key) & mask_;
    while (keys_[slot] != kEmpty) {
      if (keys_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    keys_[slot] = key;
    return true;
  }

 private:
  // ~0 packs (kInvalidVertex, kInvalidVertex), which the classifier
  // rejects, so the sentinel never collides with a real edge key.
  static constexpr uint64_t kEmpty = ~0ull;

  // splitmix64 finalizer: full-width mixing so the sequential low-id keys
  // real datasets produce spread across the table.
  static size_t Hash(uint64_t key) {
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ull;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBull;
    key ^= key >> 31;
    return static_cast<size_t>(key);
  }

  size_t mask_;
  std::vector<uint64_t> keys_;
};

}  // namespace

Graph ParseEdgeListBuffer(std::string_view text, int threads,
                          EdgeListStats* stats) {
  TKC_SPAN("io.parse.edges");
  threads = ResolveThreads(threads);
  EdgeListStats total;
  const std::vector<size_t> bounds = ChunkBoundaries(text, threads);
  const size_t num_chunks = bounds.size() - 1;
  std::vector<EdgeChunk> chunks(num_chunks);
  ParallelFor(threads, num_chunks, [&](int, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      ParseEdgeChunk(text.substr(bounds[c], bounds[c + 1] - bounds[c]),
                     &chunks[c]);
    }
  });

  // Serial merge in chunk order: EdgeId assignment and duplicate detection
  // depend on global row order, so this stays on one thread — it is the
  // pipeline's serial fraction.
  TKC_SPAN("io.parse.merge");
  size_t row_count = 0;
  uint64_t line_base = 0;
  for (const EdgeChunk& chunk : chunks) {
    MergeLineStats(chunk.stats, line_base, &total);
    line_base += chunk.stats.lines;
    row_count += chunk.rows.size();
  }

  std::vector<Edge> edge_table;
  edge_table.reserve(row_count);
  EdgeKeySet edge_index(row_count);
  VertexId num_vertices = 0;
  for (const EdgeChunk& chunk : chunks) {
    for (const EdgeRow& row : chunk.rows) {
      const VertexId a = std::min(row.u, row.v);
      const VertexId b = std::max(row.u, row.v);
      const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
      if (edge_index.Insert(key)) {
        edge_table.push_back(Edge{a, b});
        ++total.edges_added;
        if (b + 1 > num_vertices) num_vertices = b + 1;
      } else {
        ++total.duplicate_edges;
      }
    }
  }

  std::vector<uint32_t> degree(num_vertices, 0);
  for (const Edge& e : edge_table) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<std::vector<Neighbor>> adjacency(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) adjacency[v].reserve(degree[v]);
  for (EdgeId e = 0; e < edge_table.size(); ++e) {
    adjacency[edge_table[e].u].push_back(Neighbor{edge_table[e].v, e});
    adjacency[edge_table[e].v].push_back(Neighbor{edge_table[e].u, e});
  }
  // Per-vertex sorts are independent and every neighbor id is unique, so
  // the parallel sort is deterministic.
  ParallelFor(threads, num_vertices, [&](int, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      std::sort(adjacency[v].begin(), adjacency[v].end());
    }
  });

  EmitParseCounters(text, num_chunks);
  EmitEdgeListCounters(total);
  if (stats != nullptr) *stats = std::move(total);
  return Graph::FromParts(std::move(adjacency), std::move(edge_table));
}

std::vector<EdgeEvent> ParseEventListBuffer(std::string_view text, int threads,
                                            EventListStats* stats) {
  TKC_SPAN("io.parse.events");
  threads = ResolveThreads(threads);
  EventListStats total;
  const std::vector<size_t> bounds = ChunkBoundaries(text, threads);
  const size_t num_chunks = bounds.size() - 1;
  std::vector<EventChunk> chunks(num_chunks);
  ParallelFor(threads, num_chunks, [&](int, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      ParseEventChunk(text.substr(bounds[c], bounds[c + 1] - bounds[c]),
                      &chunks[c]);
    }
  });

  size_t event_count = 0;
  uint64_t line_base = 0;
  for (const EventChunk& chunk : chunks) {
    MergeLineStats(chunk.stats, line_base, &total);
    line_base += chunk.stats.lines;
    total.events_parsed += chunk.events.size();
    event_count += chunk.events.size();
  }
  std::vector<EdgeEvent> events;
  events.reserve(event_count);
  for (const EventChunk& chunk : chunks) {
    events.insert(events.end(), chunk.events.begin(), chunk.events.end());
  }

  EmitParseCounters(text, num_chunks);
  EmitEventListCounters(total);
  if (stats != nullptr) *stats = std::move(total);
  return events;
}

}  // namespace tkc
