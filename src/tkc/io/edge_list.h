#ifndef TKC_IO_EDGE_LIST_H_
#define TKC_IO_EDGE_LIST_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "tkc/graph/graph.h"

namespace tkc {

/// Plain-text edge list: one "u v" pair per line; blank lines and lines
/// starting with '#' or '%' are ignored (SNAP / Pajek-style headers).
///
/// Public datasets such as the ones in Table I routinely carry junk —
/// self-loops, duplicate pairs (often reversed), stray text. The reader is
/// tolerant: offending lines are *skipped and counted* instead of aborting
/// the load, so one bad row in a million-edge crawl does not discard the
/// dataset. The per-kind tallies land in `EdgeListStats` and in the
/// `io.skipped_lines` / `io.malformed_lines` / `io.self_loops` /
/// `io.duplicate_edges` metrics counters.

/// Per-load accounting of what the tolerant reader did.
struct EdgeListStats {
  uint64_t lines = 0;            // every line seen, including comments
  uint64_t comment_lines = 0;    // blank, '#', '%'
  uint64_t malformed_lines = 0;  // non-numeric, negative, or out-of-range
  uint64_t self_loops = 0;       // "u u" rows
  uint64_t duplicate_edges = 0;  // repeats, including reversed "v u" rows
  uint64_t edges_added = 0;      // rows that became live edges
  // 1-based line numbers of the first few malformed rows (capped at
  // tokenizer.h's kMaxRecordedMalformedLines), so the load warning can
  // point at the offending rows instead of just counting them.
  std::vector<uint64_t> malformed_line_numbers;

  /// Rows skipped for any reason (the io.skipped_lines counter).
  uint64_t Skipped() const {
    return malformed_lines + self_loops + duplicate_edges;
  }

  friend bool operator==(const EdgeListStats&, const EdgeListStats&) = default;
};

/// Parses from a stream; never fails on row content (see above). `stats`,
/// when provided, receives the load accounting.
std::optional<Graph> ReadEdgeList(std::istream& in,
                                  EdgeListStats* stats = nullptr);

/// Reads from a file path via the mmap/chunked pipeline (io/parallel_ingest);
/// `threads` follows the ResolveThreads convention (0 = default pool width)
/// and the result is bit-identical to ReadEdgeList at any thread count.
/// Returns std::nullopt when the file cannot be opened.
std::optional<Graph> ReadEdgeListFile(const std::string& path,
                                      EdgeListStats* stats = nullptr,
                                      int threads = 1);

/// The same parse without the builder Graph: the deduplicated edge table
/// that CsrGraph::FromEdgeTable freezes. The file is unmapped before it
/// returns.
std::optional<EdgeTable> ReadEdgeTableFile(const std::string& path,
                                           EdgeListStats* stats = nullptr,
                                           int threads = 1);

/// Bumps the io.* metrics counters for one completed load. The stream and
/// buffer readers both report through this.
void EmitEdgeListCounters(const EdgeListStats& stats);

/// Writes "u v" lines (live edges, increasing EdgeId), with a "# vertices
/// edges" comment header.
void WriteEdgeList(const Graph& g, std::ostream& out);

bool WriteEdgeListFile(const Graph& g, const std::string& path);

/// Per-vertex integer attribute file: "vertex attribute" per line, used by
/// the labeled (PPI-complex) studies. Vertices absent from the file get
/// attribute 0.
std::optional<std::vector<uint32_t>> ReadVertexAttributes(
    std::istream& in, VertexId num_vertices);

void WriteVertexAttributes(const std::vector<uint32_t>& attribute_of,
                           std::ostream& out);

}  // namespace tkc

#endif  // TKC_IO_EDGE_LIST_H_
