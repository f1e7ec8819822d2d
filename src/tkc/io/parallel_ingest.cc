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

// splitmix64 finalizer over a packed (min,max) key: full-width mixing, so
// the sequential low-id keys real datasets produce spread over both the
// dedup partitions (top byte) and the table slots (low bits).
uint64_t HashKey(uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}

// The dedup key of a data row: its endpoints normalized to (min, max).
uint64_t PackKey(VertexId u, VertexId v) {
  return (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

struct EdgeChunk {
  std::vector<uint64_t> keys;    // PackKey of each kData row, file order
  std::vector<uint8_t> buckets;  // HashKey(key) >> 56: the dedup partition
  EdgeListStats stats;           // line numbers are chunk-local (1-based)
  VertexId num_vertices = 0;     // one past the largest id in `keys`
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
      case LineClass::kData: {
        const uint64_t key = PackKey(u, v);
        out->keys.push_back(key);
        out->buckets.push_back(static_cast<uint8_t>(HashKey(key) >> 56));
        out->num_vertices = std::max(out->num_vertices, std::max(u, v) + 1);
        break;
      }
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

// Flat open-addressing set over packed (min,max) endpoint keys: linear
// probing over one power-of-two array (std::unordered_set's per-node
// allocations once made the dedup ~90% of parse time). It is sized for one
// partition's expected share and doubles at 3/4 load, since the input
// decides how many keys a partition really gets.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.assign(cap, kEmpty);
  }

  /// True iff `key` was absent (and is now inserted).
  bool Insert(uint64_t key) {
    if (4 * (size_ + 1) > 3 * keys_.size()) Grow();
    const size_t mask = keys_.size() - 1;
    size_t slot = HashKey(key) & mask;
    while (keys_[slot] != kEmpty) {
      if (keys_[slot] == key) return false;
      slot = (slot + 1) & mask;
    }
    keys_[slot] = key;
    ++size_;
    return true;
  }

 private:
  // ~0 packs (kInvalidVertex, kInvalidVertex), which the classifier
  // rejects, so the sentinel never collides with a real edge key.
  static constexpr uint64_t kEmpty = ~0ull;

  void Grow() {
    std::vector<uint64_t> old(keys_.size() * 2, kEmpty);
    old.swap(keys_);
    size_ = 0;
    for (const uint64_t key : old) {
      if (key != kEmpty) Insert(key);
    }
  }

  size_t size_ = 0;
  std::vector<uint64_t> keys_;
};

// The builder tail of ReadEdgeListFile: per-vertex adjacency vectors from
// the edge table, each sorted by neighbor id. Worker t owns one contiguous
// vertex range and scans the whole table twice (degrees, then entries),
// touching only its own vertices' lists, so no two workers share a write.
Graph GraphFromEdgeTable(EdgeTable table, int threads) {
  const VertexId n = table.num_vertices;
  const std::vector<Edge>& edges = table.edges;
  std::vector<std::vector<Neighbor>> adjacency(n);
  const size_t workers = static_cast<size_t>(threads);
  ParallelFor(threads, workers, [&](int, size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const auto lo = static_cast<VertexId>(uint64_t{n} * t / workers);
      const auto span =
          static_cast<VertexId>(uint64_t{n} * (t + 1) / workers - lo);
      std::vector<uint32_t> degree(span, 0);
      for (const Edge& e : edges) {
        if (e.u - lo < span) ++degree[e.u - lo];
        if (e.v - lo < span) ++degree[e.v - lo];
      }
      for (VertexId i = 0; i < span; ++i) adjacency[lo + i].reserve(degree[i]);
      for (EdgeId e = 0; e < edges.size(); ++e) {
        if (edges[e].u - lo < span) {
          adjacency[edges[e].u].push_back(Neighbor{edges[e].v, e});
        }
        if (edges[e].v - lo < span) {
          adjacency[edges[e].v].push_back(Neighbor{edges[e].u, e});
        }
      }
      // Neighbor ids in one list are distinct, so the sort is deterministic.
      for (VertexId i = 0; i < span; ++i) {
        std::sort(adjacency[lo + i].begin(), adjacency[lo + i].end());
      }
    }
  });
  return Graph::FromParts(std::move(adjacency), std::move(table.edges));
}

}  // namespace

EdgeTable ParseEdgeTable(std::string_view text, int threads,
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

  EdgeTable table;
  std::vector<size_t> row_base(num_chunks + 1, 0);
  uint64_t line_base = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    MergeLineStats(chunks[c].stats, line_base, &total);
    line_base += chunks[c].stats.lines;
    row_base[c + 1] = row_base[c] + chunks[c].keys.size();
    // A duplicate row has the endpoints of the row it repeats, so the
    // largest id over all rows is the largest over the kept ones.
    table.num_vertices = std::max(table.num_vertices, chunks[c].num_vertices);
  }
  const size_t row_count = row_base[num_chunks];

  // Parallel dedup by hash partition. Worker p owns the keys whose hash
  // bucket maps to p, walks every row in global (chunk, row) order and
  // keeps a row iff its key is new to p's table, so each key's first
  // occurrence wins exactly as in the serial stream reader. A worker writes
  // only the flags of its own rows and its own row of counts.
  TKC_SPAN("io.parse.dedup");
  const size_t parts = static_cast<size_t>(threads);
  std::vector<uint8_t> duplicate(row_count, 0);
  std::vector<size_t> dup_count(parts * num_chunks, 0);  // [part][chunk]
  ParallelFor(threads, parts, [&](int, size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      EdgeKeySet seen(row_count / parts);
      for (size_t c = 0; c < num_chunks; ++c) {
        const EdgeChunk& chunk = chunks[c];
        for (size_t i = 0; i < chunk.keys.size(); ++i) {
          if (chunk.buckets[i] * parts >> 8 != p) continue;
          if (!seen.Insert(chunk.keys[i])) {
            duplicate[row_base[c] + i] = 1;
            ++dup_count[p * num_chunks + c];
          }
        }
      }
    }
  });

  // EdgeIds: each chunk's kept rows start at the prefix sum of the kept
  // counts before it, and the chunks scatter in parallel.
  std::vector<size_t> edge_base(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t dups = 0;
    for (size_t p = 0; p < parts; ++p) dups += dup_count[p * num_chunks + c];
    edge_base[c + 1] = edge_base[c] + chunks[c].keys.size() - dups;
  }
  table.edges.resize(edge_base[num_chunks]);
  ParallelFor(threads, num_chunks, [&](int, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      Edge* out = table.edges.data() + edge_base[c];
      const std::vector<uint64_t>& keys = chunks[c].keys;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (duplicate[row_base[c] + i] != 0) continue;
        *out++ = Edge{static_cast<VertexId>(keys[i] >> 32),
                      static_cast<VertexId>(keys[i])};
      }
      chunks[c] = EdgeChunk{};  // the rows are in the table now
    }
  });
  total.edges_added = table.edges.size();
  total.duplicate_edges = row_count - table.edges.size();

  EmitParseCounters(text, num_chunks);
  EmitEdgeListCounters(total);
  if (stats != nullptr) *stats = std::move(total);
  return table;
}

Graph ParseEdgeListBuffer(std::string_view text, int threads,
                          EdgeListStats* stats) {
  return GraphFromEdgeTable(ParseEdgeTable(text, threads, stats),
                            ResolveThreads(threads));
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
