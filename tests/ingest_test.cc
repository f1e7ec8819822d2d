#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/event_list.h"
#include "tkc/io/graph_cache.h"
#include "tkc/io/parallel_ingest.h"
#include "tkc/io/tokenizer.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<Edge> EdgeTable(const Graph& g) {
  std::vector<Edge> edges;
  g.ForEachEdge([&](EdgeId, const Edge& e) { edges.push_back(e); });
  return edges;
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  const std::vector<Edge> ea = EdgeTable(a);
  const std::vector<Edge> eb = EdgeTable(b);
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u) << "edge " << i;
    EXPECT_EQ(ea[i].v, eb[i].v) << "edge " << i;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    ASSERT_EQ(a.Degree(v), b.Degree(v)) << "vertex " << v;
    for (size_t i = 0; i < a.Degree(v); ++i) {
      EXPECT_EQ(a.Neighbors(v)[i].vertex, b.Neighbors(v)[i].vertex);
      EXPECT_EQ(a.Neighbors(v)[i].edge, b.Neighbors(v)[i].edge);
    }
  }
}

void ExpectSameFrozen(const CsrGraph& a, const CsrGraph& b) {
  EXPECT_EQ(a.RawOffsets(), b.RawOffsets());
  ASSERT_EQ(a.RawEntries().size(), b.RawEntries().size());
  for (size_t i = 0; i < a.RawEntries().size(); ++i) {
    EXPECT_EQ(a.RawEntries()[i].vertex, b.RawEntries()[i].vertex)
        << "entry " << i;
    EXPECT_EQ(a.RawEntries()[i].edge, b.RawEntries()[i].edge) << "entry " << i;
  }
  ASSERT_EQ(a.RawEdges().size(), b.RawEdges().size());
  for (size_t i = 0; i < a.RawEdges().size(); ++i) {
    EXPECT_EQ(a.RawEdges()[i].u, b.RawEdges()[i].u) << "edge " << i;
    EXPECT_EQ(a.RawEdges()[i].v, b.RawEdges()[i].v) << "edge " << i;
  }
}

// Everything a reader of a snapshot sees: the raw arrays plus every rank
// and every oriented out-list.
void ExpectSameSnapshot(const CsrGraph& want, const CsrGraph& got) {
  ExpectSameFrozen(want, got);
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    EXPECT_EQ(got.Rank(v), want.Rank(v)) << "vertex " << v;
    ASSERT_EQ(got.OutDegree(v), want.OutDegree(v)) << "vertex " << v;
    for (size_t i = 0; i < want.OutDegree(v); ++i) {
      EXPECT_EQ(got.OutNeighborsBegin(v)[i].vertex,
                want.OutNeighborsBegin(v)[i].vertex);
      EXPECT_EQ(got.OutNeighborsBegin(v)[i].edge,
                want.OutNeighborsBegin(v)[i].edge);
    }
  }
}

// The ingest thread axis: serial, even and odd splits, and more workers
// than a small text has chunks.
constexpr int kIngestThreads[] = {1, 2, 3, 8};

// The CLI's text path: parse to an edge table, freeze it directly.
CsrGraph DirectBuild(std::string_view text, int threads,
                     EdgeListStats* stats) {
  return CsrGraph::FromEdgeTable(ParseEdgeTable(text, threads, stats),
                                 threads);
}

// Holds the direct build of `text` (and the builder Graph of the same
// parse) to the stream reader at every thread count: stats, raw CSR
// arrays, ranks and out-lists against CsrGraph(*ReadEdgeList(stream)).
void ExpectDirectBuildMatchesStreamReader(const std::string& text) {
  std::istringstream stream(text);
  EdgeListStats oracle_stats;
  auto oracle = ReadEdgeList(stream, &oracle_stats);
  ASSERT_TRUE(oracle.has_value());
  const CsrGraph want(*oracle);
  for (const int threads : kIngestThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EdgeListStats stats;
    ExpectSameSnapshot(want, DirectBuild(text, threads, &stats));
    EXPECT_EQ(stats, oracle_stats);
    EdgeListStats graph_stats;
    ExpectSameGraph(*oracle, ParseEdgeListBuffer(text, threads, &graph_stats));
    EXPECT_EQ(graph_stats, oracle_stats);
  }
}

// `rows` path edges over ids [base, base + rows]: bulk that pushes the
// rows around it into different chunks.
std::string Filler(VertexId base, size_t rows) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) {
    text += std::to_string(base + i) + ' ' + std::to_string(base + i + 1) +
            '\n';
  }
  return text;
}

// Messy-but-realistic edge list: comments, duplicates, reversed rows,
// self-loops, and malformed junk interleaved with real rows.
std::string MessyEdgeText(uint64_t seed, size_t rows) {
  Rng rng(seed);
  std::ostringstream text;
  text << "# header comment\n% pajek style\n\n";
  for (size_t i = 0; i < rows; ++i) {
    const double roll = rng.NextDouble();
    const uint64_t u = rng.NextBounded(300);
    const uint64_t v = rng.NextBounded(300);
    if (roll < 0.04) {
      text << "junk line " << i << '\n';
    } else if (roll < 0.07) {
      text << "-3 " << v << '\n';
    } else if (roll < 0.10) {
      text << u << '\n';
    } else if (roll < 0.14) {
      text << u << ' ' << u << '\n';
    } else {
      text << u << ' ' << v << '\n';
    }
  }
  return text.str();
}

TEST(TokenizerTest, LinePins) {
  VertexId u = 0;
  VertexId v = 0;
  // Trailing junk after two valid ids is ignored (istringstream semantics).
  EXPECT_EQ(ClassifyEdgeLine("0 1 junk", &u, &v), LineClass::kData);
  EXPECT_EQ(u, 0u);
  EXPECT_EQ(v, 1u);
  // operator>> stops at the first non-digit: "1abc" parses as 1.
  EXPECT_EQ(ClassifyEdgeLine("0 1abc", &u, &v), LineClass::kData);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(ClassifyEdgeLine("7 7", &u, &v), LineClass::kSelfLoop);
  EXPECT_EQ(ClassifyEdgeLine("# comment", &u, &v), LineClass::kComment);
  EXPECT_EQ(ClassifyEdgeLine("", &u, &v), LineClass::kComment);
  EXPECT_EQ(ClassifyEdgeLine("   ", &u, &v), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEdgeLine("\r", &u, &v), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEdgeLine("-1 2", &u, &v), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEdgeLine("3", &u, &v), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEdgeLine("0 4294967295", &u, &v), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEdgeLine("99999999999999999999 1", &u, &v),
            LineClass::kMalformed);
  EXPECT_EQ(ClassifyEdgeLine("0 1\r", &u, &v), LineClass::kData);

  EdgeEvent ev{};
  EXPECT_EQ(ClassifyEventLine("+ 0 1", &ev), LineClass::kData);
  EXPECT_EQ(ev.kind, EdgeEvent::Kind::kInsert);
  EXPECT_EQ(ClassifyEventLine("- 2 3", &ev), LineClass::kData);
  EXPECT_EQ(ev.kind, EdgeEvent::Kind::kRemove);
  // The op must be its own whitespace-delimited token.
  EXPECT_EQ(ClassifyEventLine("+0 1", &ev), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEventLine("* 0 1", &ev), LineClass::kMalformed);
  EXPECT_EQ(ClassifyEventLine("+ 4 4", &ev), LineClass::kSelfLoop);
}

TEST(TokenizerTest, LineCursorFraming) {
  LineCursor cursor("a\n\nb");
  std::string_view line;
  ASSERT_TRUE(cursor.Next(&line));
  EXPECT_EQ(line, "a");
  EXPECT_EQ(cursor.line_number(), 1u);
  ASSERT_TRUE(cursor.Next(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(cursor.Next(&line));
  EXPECT_EQ(line, "b");
  EXPECT_EQ(cursor.line_number(), 3u);
  EXPECT_FALSE(cursor.Next(&line));

  LineCursor empty("");
  EXPECT_FALSE(empty.Next(&line));

  // A trailing newline does not produce a phantom final line.
  LineCursor trailing("x\ny\n");
  size_t count = 0;
  while (trailing.Next(&line)) ++count;
  EXPECT_EQ(count, 2u);
}

// The tentpole determinism claim: the chunked parallel parser produces a
// byte-identical graph, stats, and malformed line numbers at every thread
// count, matching the serial stream reader exactly.
TEST(ParallelIngestTest, EdgeParseDeterministicAcrossThreads) {
  const std::string text = MessyEdgeText(11, 4000);
  std::istringstream stream(text);
  EdgeListStats oracle_stats;
  auto oracle = ReadEdgeList(stream, &oracle_stats);
  ASSERT_TRUE(oracle.has_value());
  ASSERT_GT(oracle_stats.malformed_lines, 0u);
  ASSERT_FALSE(oracle_stats.malformed_line_numbers.empty());

  ExpectDirectBuildMatchesStreamReader(text);
}

TEST(DirectBuildTest, ReversedDuplicatesAcrossChunks) {
  // "7 3" is kept in the first chunk and repeated reversed in a later one;
  // "9 8" first occurs in the last chunk and is repeated reversed there.
  const std::string text = "7 3\n" + Filler(100, 400) + "3 7\n" +
                           Filler(600, 400) + "7 3\n9 8\n8 9\n";
  ExpectDirectBuildMatchesStreamReader(text);
  for (const int threads : kIngestThreads) {
    EdgeListStats stats;
    const CsrGraph csr = DirectBuild(text, threads, &stats);
    EXPECT_EQ(stats.duplicate_edges, 3u) << threads;
    EXPECT_EQ(csr.FindEdge(3, 7), 0u) << threads;
    EXPECT_EQ(csr.FindEdge(8, 9), 801u) << threads;
  }
}

TEST(DirectBuildTest, DuplicatesInEveryPartition) {
  // 64 distinct keys, each repeated (reversed, then forward) after filler:
  // the keys hash over every partition of an 8-worker dedup.
  std::string text;
  for (VertexId k = 0; k < 64; ++k) {
    text += std::to_string(2 * k) + ' ' + std::to_string(5000 + k) + '\n';
  }
  text += Filler(10000, 300);
  for (VertexId k = 0; k < 64; ++k) {
    text += std::to_string(5000 + k) + ' ' + std::to_string(2 * k) + '\n';
    text += Filler(20000 + 4 * k, 2);
    text += std::to_string(2 * k) + ' ' + std::to_string(5000 + k) + '\n';
  }
  ExpectDirectBuildMatchesStreamReader(text);
}

TEST(DirectBuildTest, OnePartitionGetsEveryKey) {
  // Rows whose keys all hash into the first of 8 dedup partitions (the
  // partition is the top byte of the splitmix64 of the packed (min, max)
  // key, as in parallel_ingest.cc), each repeated reversed: that worker's
  // table, sized for an eighth of the rows, has to grow several times.
  auto bucket = [](uint64_t key) {
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ull;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBull;
    key ^= key >> 31;
    return key >> 56;
  };
  std::string text;
  std::string repeats;
  for (uint64_t u = 0, kept = 0; kept < 1500; ++u) {
    const uint64_t v = u + 1 + u % 7;
    if (bucket((u << 32) | v) >= 32) continue;
    text += std::to_string(u) + ' ' + std::to_string(v) + '\n';
    repeats += std::to_string(v) + ' ' + std::to_string(u) + '\n';
    ++kept;
  }
  ExpectDirectBuildMatchesStreamReader(text + repeats);
}

TEST(DirectBuildTest, SelfLoopsAndMalformedRows) {
  ExpectDirectBuildMatchesStreamReader(
      "0 1\n2 2\njunk\n-1 4\n" + Filler(3, 200) + "1 2\n3\n0 2\n5 5\n" +
      Filler(300, 200) + "x y\n1 0\n");
}

TEST(DirectBuildTest, NoTrailingNewline) {
  ExpectDirectBuildMatchesStreamReader(Filler(0, 300) + "1 0\n400 2");
}

TEST(DirectBuildTest, EmptyAndCommentOnlyFiles) {
  for (const std::string text : {"", "# only\n% comments\n\n", "# x"}) {
    ExpectDirectBuildMatchesStreamReader(text);
    const CsrGraph csr = DirectBuild(text, 4, nullptr);
    EXPECT_EQ(csr.NumVertices(), 0u);
    EXPECT_EQ(csr.NumEdges(), 0u);
  }
}

TEST(DirectBuildTest, IsolatedHighVertexId) {
  const std::string text = "0 1\n1 2\n0 2\n40000 39999\n";
  ExpectDirectBuildMatchesStreamReader(text);
  const CsrGraph csr = DirectBuild(text, 3, nullptr);
  EXPECT_EQ(csr.NumVertices(), 40001u);
  EXPECT_EQ(csr.Degree(20000), 0u);
}

TEST(ParallelIngestTest, FreezeDeterministicAcrossThreads) {
  Rng rng(5);
  Graph g = PowerLawCluster(1500, 5, 0.4, rng);
  CsrGraph serial = CsrGraph::Freeze(g, 1);
  for (int threads : {2, 8}) {
    CsrGraph parallel = CsrGraph::Freeze(g, threads);
    ExpectSameFrozen(serial, parallel);
  }
}

TEST(ParallelIngestTest, EventParseDeterministicAcrossThreads) {
  Rng rng(19);
  std::ostringstream text;
  text << "# events\n";
  for (int i = 0; i < 3000; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.05) {
      text << "+0 bad\n";
    } else if (roll < 0.08) {
      text << "* 1 2\n";
    } else {
      text << (rng.NextBool(0.7) ? '+' : '-') << ' ' << rng.NextBounded(200)
           << ' ' << rng.NextBounded(200) << '\n';
    }
  }
  const std::string buffer = text.str();
  std::istringstream stream(buffer);
  EventListStats oracle_stats;
  auto oracle = ReadEventList(stream, &oracle_stats);
  ASSERT_TRUE(oracle.has_value());
  for (int threads : {1, 2, 8}) {
    EventListStats stats;
    std::vector<EdgeEvent> events = ParseEventListBuffer(buffer, threads, &stats);
    EXPECT_EQ(stats, oracle_stats) << "threads=" << threads;
    ASSERT_EQ(events.size(), oracle->size());
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].kind, (*oracle)[i].kind);
      EXPECT_EQ(events[i].u, (*oracle)[i].u);
      EXPECT_EQ(events[i].v, (*oracle)[i].v);
    }
  }
}

TEST(ParallelIngestTest, MalformedLineNumbersAreGlobalAndOneBased) {
  const std::string text = "0 1\njunk\n2 3\n\nbad row\n4 5\n";
  for (const int threads : kIngestThreads) {
    EdgeListStats stats;
    (void)ParseEdgeTable(text, threads, &stats);
    EXPECT_EQ(stats.malformed_lines, 2u);
    ASSERT_EQ(stats.malformed_line_numbers.size(), 2u);
    EXPECT_EQ(stats.malformed_line_numbers[0], 2u);
    EXPECT_EQ(stats.malformed_line_numbers[1], 5u);
  }
}

TEST(ParallelIngestTest, FileReaderMatchesStreamReader) {
  const std::string text = MessyEdgeText(23, 1000);
  const std::string path = TempPath("ingest_messy.txt");
  {
    std::ofstream file(path, std::ios::binary);
    file << text;
  }
  std::istringstream stream(text);
  EdgeListStats oracle_stats;
  auto oracle = ReadEdgeList(stream, &oracle_stats);
  ASSERT_TRUE(oracle.has_value());
  const CsrGraph want(*oracle);
  for (const int threads : kIngestThreads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EdgeListStats stats;
    auto g = ReadEdgeListFile(path, &stats, threads);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(stats, oracle_stats);
    ExpectSameGraph(*oracle, *g);
    EdgeListStats table_stats;
    auto table = ReadEdgeTableFile(path, &table_stats, threads);
    ASSERT_TRUE(table.has_value());
    EXPECT_EQ(table_stats, oracle_stats);
    ExpectSameSnapshot(want,
                       CsrGraph::FromEdgeTable(std::move(*table), threads));
  }
  EXPECT_FALSE(ReadEdgeListFile(TempPath("ingest_missing.txt")).has_value());
  EXPECT_FALSE(ReadEdgeTableFile(TempPath("ingest_missing.txt")).has_value());
}

class GraphCacheTest : public ::testing::Test {
 protected:
  // Header: magic[4] | u32 version | u64 num_vertices | u64 num_edges
  //   | u64 payload_bytes | u64 checksum, then the (u, v) rows.
  static constexpr size_t kVerticesAt = 8;
  static constexpr size_t kEdgesAt = 16;
  static constexpr size_t kPayloadBytesAt = 24;
  static constexpr size_t kChecksumAt = 32;
  static constexpr size_t kPayloadAt = 40;

  void SetUp() override {
    Rng rng(7);
    graph_ = PowerLawCluster(600, 4, 0.3, rng);
    path_ = TempPath("ingest_cache.tkcg");
  }

  std::vector<char> ReadBytes() {
    std::ifstream file(path_, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(file),
                             std::istreambuf_iterator<char>());
  }

  void WriteBytes(const std::vector<char>& bytes) {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Re-signs `bytes` with the checksum of its payload and writes it, so
  // only the structural checks can object to an edit.
  void WriteSigned(std::vector<char> bytes) {
    const uint64_t checksum =
        XxHash64(bytes.data() + kPayloadAt, bytes.size() - kPayloadAt,
                 kGraphCacheVersion);
    std::memcpy(bytes.data() + kChecksumAt, &checksum, sizeof(checksum));
    WriteBytes(bytes);
  }

  // The rejection a load at 1 thread names; a load at 4 threads (the row
  // checks split over the pool) must name the same.
  CacheStatus LoadStatus() {
    CacheStatus status = CacheStatus::kOk;
    CacheStatus parallel_status = CacheStatus::kOk;
    EXPECT_FALSE(LoadGraphCache(path_, 1, &status).has_value());
    EXPECT_FALSE(LoadGraphCache(path_, 4, &parallel_status).has_value());
    EXPECT_EQ(status, parallel_status);
    return status;
  }

  Graph graph_;
  std::string path_;
};

TEST_F(GraphCacheTest, RoundTrip) {
  CsrGraph frozen = CsrGraph::Freeze(graph_);
  ASSERT_TRUE(WriteGraphCache(frozen, path_));
  CacheStatus status = CacheStatus::kOk;
  GraphCacheInfo info;
  auto loaded = LoadGraphCache(path_, 4, &status, nullptr, &info);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, CacheStatus::kOk);
  EXPECT_EQ(info.version, kGraphCacheVersion);
  ExpectSameFrozen(frozen, *loaded);

  // The decomposition of the loaded snapshot is identical — κ edge by
  // edge, not just aggregates.
  TriangleCoreResult want = ComputeTriangleCores(frozen);
  TriangleCoreResult got = ComputeTriangleCores(*loaded);
  EXPECT_EQ(want.kappa, got.kappa);
  EXPECT_EQ(want.max_kappa, got.max_kappa);
  EXPECT_EQ(want.triangle_count, got.triangle_count);
}

TEST_F(GraphCacheTest, MissingFileIsIoError) {
  path_ = TempPath("ingest_cache_missing.tkcg");
  EXPECT_EQ(LoadStatus(), CacheStatus::kIoError);
}

TEST_F(GraphCacheTest, RejectsBadMagic) {
  ASSERT_TRUE(WriteGraphCache(CsrGraph::Freeze(graph_), path_));
  std::vector<char> bytes = ReadBytes();
  bytes[0] = 'X';
  WriteBytes(bytes);
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadMagic);
}

TEST_F(GraphCacheTest, RejectsVersionMismatch) {
  ASSERT_TRUE(WriteGraphCache(CsrGraph::Freeze(graph_), path_));
  const std::vector<char> good = ReadBytes();
  // A future version and the previous one (which could carry a vertex
  // permutation) are both refused by name.
  for (const uint32_t version :
       {kGraphCacheVersion + 9, kGraphCacheVersion - 1}) {
    std::vector<char> bytes = good;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    WriteBytes(bytes);
    EXPECT_EQ(LoadStatus(), CacheStatus::kBadVersion) << version;
  }
}

TEST_F(GraphCacheTest, RejectsTruncation) {
  ASSERT_TRUE(WriteGraphCache(CsrGraph::Freeze(graph_), path_));
  std::vector<char> bytes = ReadBytes();
  // Both a mid-payload cut and a mid-header cut must be caught.
  WriteBytes(std::vector<char>(bytes.begin(), bytes.begin() + 200));
  EXPECT_EQ(LoadStatus(), CacheStatus::kTruncated);
  WriteBytes(std::vector<char>(bytes.begin(), bytes.begin() + 20));
  EXPECT_EQ(LoadStatus(), CacheStatus::kTruncated);
}

TEST_F(GraphCacheTest, RejectsFlippedPayloadByte) {
  ASSERT_TRUE(WriteGraphCache(CsrGraph::Freeze(graph_), path_));
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 5] ^= 0x40;
  WriteBytes(bytes);
  EXPECT_EQ(LoadStatus(), CacheStatus::kChecksumMismatch);
}

TEST_F(GraphCacheTest, RejectsBadStructureEvenWithValidChecksum) {
  ASSERT_TRUE(WriteGraphCache(CsrGraph::Freeze(graph_), path_));
  std::vector<char> bytes = ReadBytes();
  // Retarget edge row 0 at a vertex the header does not have, then re-sign
  // the payload so only the row checks can catch it.
  const uint32_t bogus = 0xDEADBEEFu;
  std::memcpy(bytes.data() + kPayloadAt + 4, &bogus, sizeof(bogus));
  WriteSigned(bytes);
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure);
}

// Each file below has a valid checksum over rows that are not an edge
// table; each loads as its named rejection, never as a graph and never as
// a check abort (this suite also runs at TKC_CHECK_LEVEL=2).
TEST_F(GraphCacheTest, RejectsRowsThatAreNotAnEdgeTable) {
  ASSERT_TRUE(WriteGraphCache(CsrGraph::Freeze(graph_), path_));
  const std::vector<char> good = ReadBytes();
  const uint64_t num_vertices = graph_.NumVertices();
  const uint64_t num_edges = graph_.NumEdges();
  auto row = [](const std::vector<char>& bytes, size_t e) {
    Edge edge;
    std::memcpy(&edge, bytes.data() + kPayloadAt + e * sizeof(Edge),
                sizeof(edge));
    return edge;
  };
  auto with_row = [&](size_t e, Edge edge) {
    std::vector<char> bytes = good;
    std::memcpy(bytes.data() + kPayloadAt + e * sizeof(Edge), &edge,
                sizeof(edge));
    return bytes;
  };
  auto with_word = [&](size_t offset, uint64_t value) {
    std::vector<char> bytes = good;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const Edge first = row(good, 0);

  // A repeated row: row 1 becomes a copy of row 0.
  WriteSigned(with_row(1, first));
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure) << "repeat";
  // A reversed row (u > v).
  WriteSigned(with_row(0, Edge{first.v, first.u}));
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure) << "reversed";
  // An endpoint equal to |V|.
  WriteSigned(with_row(0, Edge{first.u, static_cast<VertexId>(num_vertices)}));
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure) << "endpoint";
  // A vertex count past the largest endpoint.
  WriteSigned(with_word(kVerticesAt, num_vertices + 1));
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure) << "isolated tail";
  // No vertices, and a row whose endpoint would wrap a 32-bit |V|.
  std::vector<char> wraps = with_row(0, Edge{first.u, kInvalidVertex});
  std::memset(wraps.data() + kVerticesAt, 0, sizeof(uint64_t));
  WriteSigned(wraps);
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure) << "wrapped count";
  // A vertex count outside the id domain.
  WriteSigned(with_word(kVerticesAt, kInvalidVertex));
  EXPECT_EQ(LoadStatus(), CacheStatus::kBadStructure) << "vertex domain";
  // An edge count (and payload size) beyond the payload.
  std::vector<char> longer = with_word(kEdgesAt, num_edges + 1);
  const uint64_t longer_bytes = (num_edges + 1) * sizeof(Edge);
  std::memcpy(longer.data() + kPayloadBytesAt, &longer_bytes,
              sizeof(longer_bytes));
  WriteSigned(longer);
  EXPECT_EQ(LoadStatus(), CacheStatus::kTruncated) << "edge count";

  // The untouched file still loads.
  WriteSigned(good);
  CacheStatus status = CacheStatus::kOk;
  EXPECT_TRUE(LoadGraphCache(path_, 4, &status).has_value())
      << CacheStatusName(status);
}

TEST_F(GraphCacheTest, WriteRefusesSnapshotsThatAreNotAnEdgeTable) {
  std::remove(path_.c_str());
  std::string error;
  Graph holes = graph_;
  holes.RemoveEdgeById(0);
  EXPECT_FALSE(WriteGraphCache(CsrGraph::Freeze(holes), path_, &error));
  EXPECT_NE(error.find("dead edge ids"), std::string::npos) << error;
  Graph isolated_tail = graph_;
  isolated_tail.AddVertex();
  EXPECT_FALSE(
      WriteGraphCache(CsrGraph::Freeze(isolated_tail), path_, &error));
  EXPECT_NE(error.find("past its largest endpoint"), std::string::npos)
      << error;
  EXPECT_FALSE(std::ifstream(path_).good());
}

TEST_F(GraphCacheTest, StatusNamesAreStable) {
  EXPECT_STREQ(CacheStatusName(CacheStatus::kOk), "ok");
  EXPECT_STREQ(CacheStatusName(CacheStatus::kIoError), "io_error");
  EXPECT_STREQ(CacheStatusName(CacheStatus::kBadMagic), "bad_magic");
  EXPECT_STREQ(CacheStatusName(CacheStatus::kBadVersion), "bad_version");
  EXPECT_STREQ(CacheStatusName(CacheStatus::kTruncated), "truncated");
  EXPECT_STREQ(CacheStatusName(CacheStatus::kChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(CacheStatusName(CacheStatus::kBadStructure), "bad_structure");
}

TEST(ThawTest, ThawPreservesEdgeIdsAndAdjacency) {
  Rng rng(31);
  Graph g = GnmRandom(300, 900, rng);
  CsrGraph frozen = CsrGraph::Freeze(g);
  Graph thawed = frozen.ThawPreservingIds();
  ExpectSameGraph(g, thawed);
  // Refreezing the thawed graph reproduces the same frozen arrays.
  ExpectSameFrozen(frozen, CsrGraph::Freeze(thawed));
}

TEST(XxHashTest, KnownVectors) {
  // Reference values from the canonical XXH64 implementation.
  EXPECT_EQ(XxHash64(nullptr, 0, 0), 0xEF46DB3751D8E999ull);
  const char* abc = "abc";
  EXPECT_EQ(XxHash64(abc, 3, 0), 0x44BC2CF5AD770999ull);
}

}  // namespace
}  // namespace tkc
