#include "tkc/io/graph_cache.h"

#include <cstring>
#include <fstream>
#include <vector>

#include "tkc/io/parallel_ingest.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"

namespace tkc {

namespace {

constexpr char kMagic[4] = {'T', 'K', 'C', 'G'};
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 8;

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
  const std::vector<size_t>& offsets = csr.RawOffsets();
  const std::vector<Neighbor>& entries = csr.RawEntries();
  const std::vector<Edge>& edges = csr.RawEdges();

  // Assemble the payload in memory once: the checksum needs the exact
  // bytes, and offsets widen to a fixed u64 on disk so the format does not
  // depend on the host's size_t.
  std::vector<unsigned char> payload;
  payload.reserve(offsets.size() * 8 + entries.size() * 8 + edges.size() * 8);
  auto append = [&payload](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    payload.insert(payload.end(), bytes, bytes + n);
  };
  for (const size_t offset : offsets) {
    const uint64_t wide = offset;
    append(&wide, sizeof(wide));
  }
  for (const Neighbor& nb : entries) {
    append(&nb.vertex, sizeof(nb.vertex));
    append(&nb.edge, sizeof(nb.edge));
  }
  for (const Edge& e : edges) {
    append(&e.u, sizeof(e.u));
    append(&e.v, sizeof(e.v));
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out.write(kMagic, sizeof(kMagic));
  Put32(out, kGraphCacheVersion);
  Put64(out, csr.NumVertices());
  Put64(out, entries.size());
  Put64(out, edges.size());
  Put32(out, 0);  // reserved
  Put32(out, 0);  // reserved
  Put64(out, payload.size());
  Put64(out, XxHash64(payload.data(), payload.size(), kGraphCacheVersion));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to '" + path + "'";
    return false;
  }
  obs::MetricsRegistry::Global().GetCounter("cache.writes").Add(1);
  return true;
}

std::optional<CsrGraph> LoadGraphCache(const std::string& path, int threads,
                                       CacheStatus* status, std::string* error,
                                       GraphCacheInfo* info) {
  TKC_SPAN("cache.load");
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
  uint32_t reserved[2] = {};
  if (!in.Take(&header.version, 4) || !in.Take(&header.num_vertices, 8) ||
      !in.Take(&header.num_edges, 8) || !in.Take(&header.edge_capacity, 8) ||
      !in.Take(reserved, sizeof(reserved)) ||
      !in.Take(&header.payload_bytes, 8) || !in.Take(&header.checksum, 8)) {
    Fail(CacheStatus::kTruncated, "file shorter than the header", status,
         error);
    return std::nullopt;
  }
  // The header stores the entry count; expose it as edges for reporting.
  const uint64_t num_entries = header.num_edges;
  header.num_edges = num_entries / 2;
  if (info != nullptr) *info = header;
  if (header.version != kGraphCacheVersion) {
    Fail(CacheStatus::kBadVersion,
         "format version " + std::to_string(header.version) +
             " (this build speaks " + std::to_string(kGraphCacheVersion) +
             "); rebuild it with `tkc cache build`",
         status, error);
    return std::nullopt;
  }
  if (reserved[0] != 0 || reserved[1] != 0) {
    Fail(CacheStatus::kBadStructure, "reserved header words are not zero",
         status, error);
    return std::nullopt;
  }
  // Bound every count by its domain / the actual file size before sizing
  // any allocation from header fields, so a crafted header cannot wrap the
  // payload arithmetic or trigger a giant allocation.
  if (header.num_vertices >= kInvalidVertex) {
    Fail(CacheStatus::kBadStructure, "vertex count exceeds the id domain",
         status, error);
    return std::nullopt;
  }
  if (num_entries > in.remaining / 8 || header.edge_capacity > in.remaining / 8 ||
      header.num_vertices > in.remaining / 8) {
    Fail(CacheStatus::kTruncated, "payload shorter than the header declares",
         status, error);
    return std::nullopt;
  }
  const uint64_t expected_payload =
      (header.num_vertices + 1) * 8 + num_entries * 8 +
      header.edge_capacity * 8;
  if (header.payload_bytes != expected_payload ||
      in.remaining < header.payload_bytes) {
    Fail(CacheStatus::kTruncated,
         "payload shorter than the header declares", status, error);
    return std::nullopt;
  }
  if (XxHash64(in.p, header.payload_bytes, kGraphCacheVersion) !=
      header.checksum) {
    Fail(CacheStatus::kChecksumMismatch, "payload checksum mismatch", status,
         error);
    return std::nullopt;
  }

  const auto num_vertices = static_cast<size_t>(header.num_vertices);
  std::vector<size_t> offsets(num_vertices + 1);
  for (size_t i = 0; i < offsets.size(); ++i) {
    uint64_t wide;
    in.Take(&wide, sizeof(wide));
    offsets[i] = static_cast<size_t>(wide);
  }
  std::vector<Neighbor> entries(static_cast<size_t>(num_entries));
  for (Neighbor& nb : entries) {
    in.Take(&nb.vertex, sizeof(nb.vertex));
    in.Take(&nb.edge, sizeof(nb.edge));
  }
  std::vector<Edge> edges(static_cast<size_t>(header.edge_capacity));
  for (Edge& e : edges) {
    in.Take(&e.u, sizeof(e.u));
    in.Take(&e.v, sizeof(e.v));
  }

  // Cheap structural sanity before any array is trusted: the checksum
  // catches bit rot, this catches a well-checksummed file that was never a
  // valid CSR (or was written by a buggy producer).
  auto reject_structure = [&](const char* what) {
    Fail(CacheStatus::kBadStructure, what, status, error);
    return std::nullopt;
  };
  if (offsets.front() != 0 || offsets.back() != entries.size()) {
    return reject_structure("offsets do not span the entry array");
  }
  for (size_t v = 0; v < num_vertices; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return reject_structure("offsets are not monotonic");
    }
  }
  for (const Neighbor& nb : entries) {
    if (nb.vertex >= num_vertices || nb.edge >= edges.size()) {
      return reject_structure("adjacency entry out of range");
    }
  }
  for (const Edge& e : edges) {
    if (e.u == kInvalidVertex && e.v == kInvalidVertex) continue;  // hole
    if (e.u >= num_vertices || e.v >= num_vertices || e.u >= e.v) {
      return reject_structure("edge endpoints out of range");
    }
  }

  registry.GetCounter("cache.hits").Add(1);
  registry.GetCounter("cache.bytes_loaded").Add(view.size());
  return CsrGraph::FromFrozenParts(std::move(offsets), std::move(entries),
                                   std::move(edges), threads);
}

}  // namespace tkc
