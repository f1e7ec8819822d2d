#ifndef TKC_IO_GRAPH_CACHE_H_
#define TKC_IO_GRAPH_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "tkc/graph/csr.h"

namespace tkc {

/// Versioned binary graph snapshot (`.tkcg`): the frozen CSR arrays of a
/// CsrGraph, written once after text ingest and mapped straight back into
/// a snapshot on every later load — repeated serving skips parse + freeze
/// entirely (the oriented view is rebuilt, which keeps the file free of
/// derived data and the loader honest about what it trusts).
///
/// Layout (fixed-width little-endian, native field order):
///   magic "TKCG" | u32 version | u64 num_vertices | u64 num_entries
///   | u64 edge_capacity | u32 reserved (0) | u32 reserved (0)
///   | u64 payload_bytes | u64 checksum | payload
/// payload = offsets u64[V+1] ++ entries (u32 vertex, u32 edge)[num_entries]
///   ++ edges (u32 u, u32 v)[edge_capacity]  (tombstones preserved)
///
/// Vertices are stored in source ids. Version 1 files could also carry a
/// vertex permutation; they are refused as kBadVersion.
///
/// The checksum is XxHash64 over the payload, seeded with the format
/// version, so corruption and truncation are both named rejections rather
/// than downstream undefined behavior; a cheap structural scan (monotonic
/// offsets, in-range ids) backs it up before any array is trusted.

inline constexpr uint32_t kGraphCacheVersion = 2;

/// Why a load was refused (kOk when it was not). Every rejection maps to
/// one named reason the CLI reports next to exit code 2.
enum class CacheStatus {
  kOk,
  kIoError,            // cannot open/read — a cache *miss*, not corruption
  kBadMagic,           // not a .tkcg file
  kBadVersion,         // format version this binary does not speak
  kTruncated,          // header or payload shorter than declared
  kChecksumMismatch,   // payload bytes corrupted
  kBadStructure,       // checksum ok but arrays are not a valid CSR
};

const char* CacheStatusName(CacheStatus status);

/// Header fields of a loaded (or probed) cache file.
struct GraphCacheInfo {
  uint32_t version = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t edge_capacity = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// Serializes `csr` to `path`. Returns false (with `*error` describing the
/// failure) on I/O errors.
bool WriteGraphCache(const CsrGraph& csr, const std::string& path,
                     std::string* error = nullptr);

/// Loads a snapshot from `path`; `threads` parallelizes the oriented-view
/// rebuild (ResolveThreads convention). On failure returns std::nullopt
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
