#ifndef TKC_IO_PARALLEL_INGEST_H_
#define TKC_IO_PARALLEL_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/event_list.h"

namespace tkc {

/// Chunked parallel text ingest.
///
/// The file is mapped (or read) into one contiguous buffer, split into
/// newline-aligned chunks, and the chunks are classified concurrently on
/// the shared ThreadPool through the same tokenizer the stream readers
/// use; each chunk keeps its data rows as normalized (min, max) edges.
/// Duplicate detection is MarkRepeatedRows over the chunks in file order
/// (a bucket per upper endpoint, filled in row order, so a row's first
/// occurrence wins as in the getline reader), and EdgeIds come from a
/// prefix sum of the per-chunk kept counts. The edge sequence — and
/// therefore every EdgeId, every stats field, and the frozen CSR built
/// from the result — is bit-identical to the serial getline reader at any
/// thread count (see docs/performance.md).

/// Read-only view of a whole file: mmap(2) when the file is mappable, a
/// read(2) loop into an owned buffer otherwise (pipes, filesystems without
/// mmap). Which path was taken lands in the io.parse.mmap_files /
/// io.parse.read_fallbacks counters.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Opens and maps `path`. Returns false (leaving the view empty) when
  /// the file cannot be opened or is a directory.
  bool Open(const std::string& path);

  std::string_view view() const { return {data_, size_}; }
  bool used_mmap() const { return mapped_; }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> owned_;  // read() fallback storage
};

/// Marks the rows of a table, given as consecutive `slices`, that repeat
/// an earlier row: one byte per row in slice order, 1 iff a row before it
/// has the same endpoints. Every row must be normalized u < v <
/// `num_vertices`. Each slice counts its rows per upper endpoint v, the
/// counts merge into one bucket per v, and the slices scatter their lower
/// endpoints into the buckets in row order; workers then sweep vertex
/// ranges, each stamping u with the last bucket that held it, so a u
/// already stamped with its own bucket is a repeat, and each slice reads
/// its rows' verdicts back from the slots it filled. The text parser
/// passes its chunks and the cache loader `threads` equal slices.
std::vector<uint8_t> MarkRepeatedRows(
    std::span<const std::span<const Edge>> slices, VertexId num_vertices,
    int threads);

/// Parses a whole edge-list buffer (same grammar as ReadEdgeList) into its
/// duplicate-free edge table with `threads` workers (ResolveThreads
/// convention). Never fails on row content; the table, its vertex count
/// and `stats` are bit-identical to the stream reader's.
EdgeTable ParseEdgeTable(std::string_view text, int threads,
                         EdgeListStats* stats = nullptr);

/// ParseEdgeTable, then the builder Graph's adjacency vectors.
Graph ParseEdgeListBuffer(std::string_view text, int threads,
                          EdgeListStats* stats = nullptr);

/// Parses a whole event-list buffer (same grammar as ReadEventList) with
/// `threads` workers; bit-identical to the stream reader.
std::vector<EdgeEvent> ParseEventListBuffer(std::string_view text,
                                            int threads,
                                            EventListStats* stats = nullptr);

}  // namespace tkc

#endif  // TKC_IO_PARALLEL_INGEST_H_
