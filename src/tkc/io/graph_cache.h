#ifndef TKC_IO_GRAPH_CACHE_H_
#define TKC_IO_GRAPH_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "tkc/graph/csr.h"

namespace tkc {

/// Versioned binary graph snapshot (`.tkcg`): the edge table of a
/// CsrGraph, its (u, v) rows in EdgeId order, behind a checksummed header.
/// A load freezes the rows with the same CsrGraph::FromEdgeTable as text
/// ingest, so a hit skips the parse and dedup and yields the snapshot text
/// ingest would. The adjacency is derived, so it is not stored or trusted.
///
/// Layout (fixed-width little-endian, native field order):
///   magic "TKCG" | u32 version | u64 num_vertices | u64 num_edges
///   | u64 payload_bytes | u64 checksum | payload
/// payload = edges (u32 u, u32 v)[num_edges], in EdgeId order
///
/// The checksum is XxHash64 over the payload, seeded with the version.
/// Versions 1 and 2 (CSR arrays) are refused as kBadVersion. Before the
/// freeze, at every TKC_CHECK_LEVEL, the rows are held to the table's
/// contract: counts within their id domains and the file, every row
/// u < v, num_vertices one past the largest endpoint (as text ingest
/// counts it) and no row repeated. Each failure is named.

inline constexpr uint32_t kGraphCacheVersion = 3;

/// Why a load was refused (kOk when it was not). Every rejection maps to
/// one named reason the CLI reports next to exit code 2.
enum class CacheStatus {
  kOk,
  kIoError,            // cannot open/read — a cache *miss*, not corruption
  kBadMagic,           // not a .tkcg file
  kBadVersion,         // format version this binary does not speak
  kTruncated,          // header or payload shorter than declared
  kChecksumMismatch,   // payload bytes corrupted
  kBadStructure,       // checksum ok but the rows are not an edge table
};

const char* CacheStatusName(CacheStatus status);

/// Header fields of a loaded (or probed) cache file.
struct GraphCacheInfo {
  uint32_t version = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// Writes the edge table of `csr` to `path`. Returns false (with `*error`
/// describing the failure) on I/O errors, and without writing when `csr`
/// is not a table the loader accepts: it has dead edge ids, or vertices
/// past its largest endpoint. Text-frozen snapshots are always writable.
bool WriteGraphCache(const CsrGraph& csr, const std::string& path,
                     std::string* error = nullptr);

/// Loads a snapshot from `path`; `threads` parallelizes the row checks
/// and the freeze (ResolveThreads convention). On failure returns std::nullopt
/// with the named reason in `*status` (and a human sentence in `*error`).
/// `*info`, when provided, receives the header even for some rejections.
std::optional<CsrGraph> LoadGraphCache(const std::string& path, int threads,
                                       CacheStatus* status = nullptr,
                                       std::string* error = nullptr,
                                       GraphCacheInfo* info = nullptr);

/// XXH64-style 64-bit hash (stripe/avalanche structure of xxHash); the
/// cache's payload checksum.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed = 0);

}  // namespace tkc

#endif  // TKC_IO_GRAPH_CACHE_H_
