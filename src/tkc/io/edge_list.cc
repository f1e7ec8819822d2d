#include "tkc/io/edge_list.h"

#include <fstream>
#include <istream>
#include <ostream>

#include "tkc/io/parallel_ingest.h"
#include "tkc/io/tokenizer.h"
#include "tkc/obs/metrics.h"

#if TKC_CHECK_LEVEL >= 2
#include <sstream>
#include <string_view>
#endif

namespace tkc {

void EmitEdgeListCounters(const EdgeListStats& stats) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("io.skipped_lines").Add(stats.Skipped());
  registry.GetCounter("io.malformed_lines").Add(stats.malformed_lines);
  registry.GetCounter("io.self_loops").Add(stats.self_loops);
  registry.GetCounter("io.duplicate_edges").Add(stats.duplicate_edges);
}

namespace {

// The getline reader behind ReadEdgeList, without the counters.
Graph ReadEdgeListRows(std::istream& in, EdgeListStats* stats) {
  Graph g;
  EdgeListStats& local = *stats;
  std::string line;
  while (std::getline(in, line)) {
    ++local.lines;
    VertexId u = kInvalidVertex, v = kInvalidVertex;
    switch (ClassifyEdgeLine(line, &u, &v)) {
      case LineClass::kComment:
        ++local.comment_lines;
        continue;
      case LineClass::kMalformed:
        ++local.malformed_lines;
        if (local.malformed_line_numbers.size() <
            kMaxRecordedMalformedLines) {
          local.malformed_line_numbers.push_back(local.lines);
        }
        continue;
      case LineClass::kSelfLoop:
        ++local.self_loops;
        continue;
      case LineClass::kData:
        break;
    }
    bool inserted = false;
    g.AddEdge(u, v, &inserted);
    if (inserted) {
      ++local.edges_added;
    } else {
      // AddEdge normalizes u<v and FindEdge is symmetric, so this also
      // catches reversed "v u" repeats.
      ++local.duplicate_edges;
    }
  }
  return g;
}

#if TKC_CHECK_LEVEL >= 2
// Level 2: the parallel parse of `text` must be the getline reader's, edge
// for edge, so the table's freeze is CsrGraph(*ReadEdgeList(stream)).
void CheckAgainstStreamReader(std::string_view text, const EdgeTable& table,
                              const EdgeListStats& stats) {
  std::istringstream in{std::string(text)};
  EdgeListStats want;
  const Graph oracle = ReadEdgeListRows(in, &want);
  TKC_CHECK_MSG(stats == want, "parallel parse stats differ from getline");
  TKC_CHECK_MSG(table.num_vertices == oracle.NumVertices(),
                "parallel parse vertex count differs from getline");
  TKC_CHECK_MSG(table.edges.size() == oracle.EdgeCapacity(),
                "parallel parse edge count differs from getline");
  for (EdgeId e = 0; e < table.edges.size(); ++e) {
    TKC_CHECK_MSG(table.edges[e] == oracle.GetEdge(e),
                  "parallel parse EdgeId differs from getline");
  }
}
#endif

}  // namespace

std::optional<Graph> ReadEdgeList(std::istream& in, EdgeListStats* stats) {
  EdgeListStats local;
  Graph g = ReadEdgeListRows(in, &local);
  EmitEdgeListCounters(local);
  if (stats != nullptr) *stats = std::move(local);
  return g;
}

std::optional<Graph> ReadEdgeListFile(const std::string& path,
                                      EdgeListStats* stats, int threads) {
  MappedFile file;
  if (!file.Open(path)) return std::nullopt;
  return ParseEdgeListBuffer(file.view(), threads, stats);
}

std::optional<EdgeTable> ReadEdgeTableFile(const std::string& path,
                                           EdgeListStats* stats,
                                           int threads) {
  MappedFile file;
  if (!file.Open(path)) return std::nullopt;
  EdgeListStats local;
  EdgeTable table = ParseEdgeTable(file.view(), threads, &local);
  TKC_VERIFY_L2(CheckAgainstStreamReader(file.view(), table, local));
  if (stats != nullptr) *stats = std::move(local);
  return table;
}

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# " << g.NumVertices() << ' ' << g.NumEdges() << '\n';
  g.ForEachEdge([&](EdgeId, const Edge& e) {
    out << e.u << ' ' << e.v << '\n';
  });
}

bool WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteEdgeList(g, out);
  return static_cast<bool>(out);
}

std::optional<std::vector<uint32_t>> ReadVertexAttributes(
    std::istream& in, VertexId num_vertices) {
  std::vector<uint32_t> attrs(num_vertices, 0);
  std::string line;
  while (std::getline(in, line)) {
    long long v = -1, a = -1;
    const LineClass cls = ClassifyAttributeLine(line, &v, &a);
    if (cls == LineClass::kComment) continue;
    // This reader is fail-fast: attribute files are produced by tooling,
    // not crawled, so a bad row means the wrong file.
    if (cls != LineClass::kData) return std::nullopt;
    if (v >= static_cast<long long>(num_vertices)) return std::nullopt;
    attrs[static_cast<size_t>(v)] = static_cast<uint32_t>(a);
  }
  return attrs;
}

void WriteVertexAttributes(const std::vector<uint32_t>& attribute_of,
                           std::ostream& out) {
  for (size_t v = 0; v < attribute_of.size(); ++v) {
    out << v << ' ' << attribute_of[v] << '\n';
  }
}

}  // namespace tkc
