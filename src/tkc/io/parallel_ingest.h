#ifndef TKC_IO_PARALLEL_INGEST_H_
#define TKC_IO_PARALLEL_INGEST_H_

#include <cstddef>
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
/// use. Duplicate detection is parallel too: the (min, max) keys are
/// hash-partitioned, one worker per partition walks all rows in global
/// chunk order (so a key's first occurrence wins, as in the getline
/// reader), and EdgeIds come from a prefix sum of the per-chunk kept
/// counts. The edge sequence — and therefore every EdgeId, every stats
/// field, and the frozen CSR built from the result — is bit-identical to
/// the serial getline reader at any thread count (see docs/performance.md).

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
