#include "tkc/io/graph_cache.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "tkc/io/parallel_ingest.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/parallel.h"

namespace tkc {

namespace {

constexpr char kMagic[4] = {'T', 'K', 'C', 'G'};
static_assert(sizeof(Edge) == 8 && std::is_trivially_copyable_v<Edge>,
              "the payload is the Edge array's bytes");

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  return Rotl(acc + lane * kPrime2, 31) * kPrime1;
}

// Serialization helpers: the writer streams fields, the loader reads them
// back out of the mapped buffer with explicit bounds checks.
void Put32(std::ofstream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void Put64(std::ofstream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

struct BufferReader {
  const unsigned char* p;
  size_t remaining;

  bool Take(void* out, size_t n) {
    if (remaining < n) return false;
    std::memcpy(out, p, n);
    p += n;
    remaining -= n;
    return true;
  }
};

void Fail(CacheStatus why, const std::string& what, CacheStatus* status,
          std::string* error) {
  auto& registry = obs::MetricsRegistry::Global();
  if (why == CacheStatus::kChecksumMismatch) {
    registry.GetCounter("cache.checksum_failures").Add(1);
  }
  if (why != CacheStatus::kIoError) {
    registry.GetCounter("cache.rejected").Add(1);
  }
  if (status != nullptr) *status = why;
  if (error != nullptr) *error = what;
}

}  // namespace

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t acc1 = seed + kPrime1 + kPrime2;
    uint64_t acc2 = seed + kPrime2;
    uint64_t acc3 = seed;
    uint64_t acc4 = seed - kPrime1;
    do {
      acc1 = Round(acc1, Read64(p));
      acc2 = Round(acc2, Read64(p + 8));
      acc3 = Round(acc3, Read64(p + 16));
      acc4 = Round(acc4, Read64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = Rotl(acc1, 1) + Rotl(acc2, 7) + Rotl(acc3, 12) + Rotl(acc4, 18);
    for (uint64_t acc : {acc1, acc2, acc3, acc4}) {
      h = (h ^ Round(0, acc)) * kPrime1 + kPrime4;
    }
  } else {
    h = seed + kPrime5;
  }
  h += len;
  while (p + 8 <= end) {
    h = Rotl(h ^ Round(0, Read64(p)), 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h = Rotl(h ^ (uint64_t{Read32(p)} * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h = Rotl(h ^ (uint64_t{*p} * kPrime5), 11) * kPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

const char* CacheStatusName(CacheStatus status) {
  switch (status) {
    case CacheStatus::kOk:
      return "ok";
    case CacheStatus::kIoError:
      return "io_error";
    case CacheStatus::kBadMagic:
      return "bad_magic";
    case CacheStatus::kBadVersion:
      return "bad_version";
    case CacheStatus::kTruncated:
      return "truncated";
    case CacheStatus::kChecksumMismatch:
      return "checksum_mismatch";
    case CacheStatus::kBadStructure:
      return "bad_structure";
  }
  return "unknown";
}

bool WriteGraphCache(const CsrGraph& csr, const std::string& path,
                     std::string* error) {
  TKC_SPAN("cache.write");
  const std::vector<Edge>& edges = csr.RawEdges();
  auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (csr.NumEdges() != edges.size()) {
    return fail("snapshot has dead edge ids; a cache stores an edge table");
  }
  uint64_t top = 0;
  for (const Edge& e : edges) top = std::max<uint64_t>(top, e.v);
  if (csr.NumVertices() != (edges.empty() ? 0 : top + 1)) {
    return fail("snapshot has vertices past its largest endpoint");
  }
  const uint64_t payload_bytes = edges.size() * sizeof(Edge);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return fail("cannot open '" + path + "' for writing");
  out.write(kMagic, sizeof(kMagic));
  Put32(out, kGraphCacheVersion);
  Put64(out, csr.NumVertices());
  Put64(out, edges.size());
  Put64(out, payload_bytes);
  Put64(out, XxHash64(edges.data(), payload_bytes, kGraphCacheVersion));
  out.write(reinterpret_cast<const char*>(edges.data()),
            static_cast<std::streamsize>(payload_bytes));
  out.flush();
  if (!out) return fail("short write to '" + path + "'");
  obs::MetricsRegistry::Global().GetCounter("cache.writes").Add(1);
  return true;
}

std::optional<CsrGraph> LoadGraphCache(const std::string& path, int threads,
                                       CacheStatus* status, std::string* error,
                                       GraphCacheInfo* info) {
  TKC_SPAN("cache.load");
  threads = ResolveThreads(threads);
  auto& registry = obs::MetricsRegistry::Global();
  MappedFile file;
  if (!file.Open(path)) {
    registry.GetCounter("cache.misses").Add(1);
    Fail(CacheStatus::kIoError, "cannot open '" + path + "'", status, error);
    return std::nullopt;
  }
  const std::string_view view = file.view();
  const auto* base = reinterpret_cast<const unsigned char*>(view.data());
  BufferReader in{base, view.size()};

  char magic[4] = {};
  if (!in.Take(magic, sizeof(magic))) {
    Fail(CacheStatus::kTruncated, "file shorter than the header", status,
         error);
    return std::nullopt;
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    Fail(CacheStatus::kBadMagic, "not a .tkcg graph cache", status, error);
    return std::nullopt;
  }
  GraphCacheInfo header;
  if (!in.Take(&header.version, 4) || !in.Take(&header.num_vertices, 8) ||
      !in.Take(&header.num_edges, 8) || !in.Take(&header.payload_bytes, 8) ||
      !in.Take(&header.checksum, 8)) {
    Fail(CacheStatus::kTruncated, "file shorter than the header", status,
         error);
    return std::nullopt;
  }
  if (info != nullptr) *info = header;
  if (header.version != kGraphCacheVersion) {
    Fail(CacheStatus::kBadVersion,
         "format version " + std::to_string(header.version) +
             " (this build speaks " + std::to_string(kGraphCacheVersion) +
             "); rebuild it with `tkc cache build`",
         status, error);
    return std::nullopt;
  }
  // Bound both counts by their id domains and the edge count by the file
  // before anything is sized from them, so a crafted header can neither
  // wrap the payload arithmetic nor ask for a giant allocation.
  // num_vertices is held to the rows below, before the freeze sizes by it.
  if (header.num_vertices >= kInvalidVertex ||
      header.num_edges >= kInvalidEdge) {
    Fail(CacheStatus::kBadStructure, "a count exceeds its id domain", status,
         error);
    return std::nullopt;
  }
  if (header.num_edges > in.remaining / sizeof(Edge) ||
      header.payload_bytes != header.num_edges * sizeof(Edge)) {
    Fail(CacheStatus::kTruncated, "payload shorter than the header declares",
         status, error);
    return std::nullopt;
  }
  if (XxHash64(in.p, header.payload_bytes, kGraphCacheVersion) !=
      header.checksum) {
    Fail(CacheStatus::kChecksumMismatch, "payload checksum mismatch", status,
         error);
    return std::nullopt;
  }

  // Copy the rows and hold each to u < v in the same pass; chunk t
  // records its largest endpoint and whether any of its rows broke that.
  EdgeTable table;
  table.num_vertices = static_cast<VertexId>(header.num_vertices);
  table.edges.resize(static_cast<size_t>(header.num_edges));
  Edge* rows = table.edges.data();
  std::vector<VertexId> top(static_cast<size_t>(threads), 0);
  std::vector<uint8_t> unordered(static_cast<size_t>(threads), 0);
  ParallelFor(threads, table.edges.size(), [&](int t, size_t begin,
                                               size_t end) {
    std::memcpy(rows + begin, in.p + begin * sizeof(Edge),
                (end - begin) * sizeof(Edge));
    VertexId largest = 0;
    bool bad = false;
    for (size_t e = begin; e < end; ++e) {
      bad |= rows[e].u >= rows[e].v;
      largest = std::max(largest, rows[e].v);
    }
    top[t] = largest;
    unordered[t] = bad ? 1 : 0;
  });
  auto reject_structure = [&](const char* what) {
    Fail(CacheStatus::kBadStructure, what, status, error);
    return std::nullopt;
  };
  if (std::find(unordered.begin(), unordered.end(), 1) != unordered.end()) {
    return reject_structure("an edge row is not u < v");
  }
  // Every endpoint is below |V| exactly when the largest one is |V| - 1.
  const uint64_t largest = *std::max_element(top.begin(), top.end());
  if (header.num_vertices != (table.edges.empty() ? 0 : largest + 1)) {
    return reject_structure(
        "num_vertices is not one past the largest endpoint");
  }
  // Before the freeze: its level-1 audit and level-2 mirror would abort
  // on a repeated row instead of naming it.
  const size_t m = table.edges.size();
  const auto slice_count = static_cast<size_t>(threads);
  std::vector<std::span<const Edge>> slices;
  for (size_t t = 0; t < slice_count; ++t) {
    slices.emplace_back(rows + m * t / slice_count,
                        rows + m * (t + 1) / slice_count);
  }
  const std::vector<uint8_t> repeated =
      MarkRepeatedRows(slices, table.num_vertices, threads);
  if (std::find(repeated.begin(), repeated.end(), 1) != repeated.end()) {
    return reject_structure("an edge row repeats");
  }

  registry.GetCounter("cache.hits").Add(1);
  registry.GetCounter("cache.bytes_loaded").Add(view.size());
  return CsrGraph::FromEdgeTable(std::move(table), threads);
}

}  // namespace tkc
