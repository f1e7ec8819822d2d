#include "tkc/viz/density_plot.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "tkc/util/check.h"

namespace tkc {

namespace {

struct FrontierEntry {
  uint32_t value;
  VertexId vertex;
  // Max-heap on value; ties broken toward the smaller vertex id so plots
  // are deterministic.
  friend bool operator<(const FrontierEntry& a, const FrontierEntry& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.vertex > b.vertex;
  }
};

}  // namespace

DensityPlot BuildDensityPlot(const CsrGraph& g,
                             const std::vector<uint32_t>& co_clique_size,
                             bool include_zero_vertices) {
  TKC_CHECK(co_clique_size.size() >= g.EdgeCapacity());
  const VertexId n = g.NumVertices();
  DensityPlot plot;
  plot.points.reserve(n);

  // Seed value per vertex: the best incident edge value (0 if none).
  std::vector<uint32_t> best_incident(n, 0);
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    uint32_t v = co_clique_size[e];
    best_incident[edge.u] = std::max(best_incident[edge.u], v);
    best_incident[edge.v] = std::max(best_incident[edge.v], v);
  });

  // Start order: vertices by decreasing best incident value, so each new
  // traversal component begins at its densest vertex.
  std::vector<VertexId> starts(n);
  for (VertexId v = 0; v < n; ++v) starts[v] = v;
  std::sort(starts.begin(), starts.end(), [&](VertexId a, VertexId b) {
    if (best_incident[a] != best_incident[b]) {
      return best_incident[a] > best_incident[b];
    }
    return a < b;
  });

  std::vector<bool> plotted(n, false);
  std::priority_queue<FrontierEntry> frontier;
  size_t start_cursor = 0;

  auto emit = [&](VertexId v, uint32_t value) {
    plotted[v] = true;
    plot.points.push_back({v, value});
    // Offer v's neighbors through their connecting edges.
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (!plotted[nb.vertex]) {
        frontier.push({co_clique_size[nb.edge], nb.vertex});
      }
    }
  };

  for (;;) {
    // Drain the frontier before starting a new component.
    bool emitted = false;
    while (!frontier.empty()) {
      FrontierEntry top = frontier.top();
      frontier.pop();
      if (plotted[top.vertex]) continue;  // stale lazy entry
      emit(top.vertex, top.value);
      emitted = true;
      break;
    }
    if (emitted) continue;
    // New component: next unplotted start.
    while (start_cursor < starts.size() && plotted[starts[start_cursor]]) {
      ++start_cursor;
    }
    if (start_cursor >= starts.size()) break;
    VertexId s = starts[start_cursor];
    if (!include_zero_vertices && best_incident[s] == 0) break;
    emit(s, best_incident[s]);
  }
  return plot;
}

uint32_t DensityPlot::MaxValue() const {
  uint32_t m = 0;
  for (const auto& p : points) m = std::max(m, p.value);
  return m;
}

int64_t DensityPlot::PositionOf(VertexId v) const {
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].vertex == v) return static_cast<int64_t>(i);
  }
  return -1;
}

std::vector<PlotPlateau> FindPlateaus(const DensityPlot& plot,
                                      uint32_t min_value, size_t min_length) {
  std::vector<PlotPlateau> plateaus;
  const auto& pts = plot.points;
  size_t i = 0;
  while (i < pts.size()) {
    if (pts[i].value < min_value) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < pts.size() && pts[j].value == pts[i].value) ++j;
    if (j - i >= min_length) {
      PlotPlateau p;
      p.begin = i;
      p.end = j;
      p.value = pts[i].value;
      for (size_t k = i; k < j; ++k) p.vertices.push_back(pts[k].vertex);
      plateaus.push_back(std::move(p));
    }
    i = j;
  }
  std::sort(plateaus.begin(), plateaus.end(),
            [](const PlotPlateau& a, const PlotPlateau& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.begin < b.begin;
            });
  return plateaus;
}

PlotComparison ComparePlots(const DensityPlot& a, const DensityPlot& b) {
  PlotComparison cmp;
  // Index values by vertex id.
  VertexId max_v = 0;
  for (const auto& p : a.points) max_v = std::max(max_v, p.vertex);
  for (const auto& p : b.points) max_v = std::max(max_v, p.vertex);
  std::vector<double> va(max_v + 1, 0.0), vb(max_v + 1, 0.0);
  for (const auto& p : a.points) va[p.vertex] = p.value;
  for (const auto& p : b.points) vb[p.vertex] = p.value;

  const size_t n = va.size();
  if (n == 0) return cmp;
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  double abs_sum = 0, abs_max = 0;
  size_t equal = 0;
  for (size_t i = 0; i < n; ++i) {
    sa += va[i];
    sb += vb[i];
    saa += va[i] * va[i];
    sbb += vb[i] * vb[i];
    sab += va[i] * vb[i];
    double d = std::fabs(va[i] - vb[i]);
    abs_sum += d;
    abs_max = std::max(abs_max, d);
    equal += (va[i] == vb[i]);
  }
  double cov = sab / n - (sa / n) * (sb / n);
  double var_a = saa / n - (sa / n) * (sa / n);
  double var_b = sbb / n - (sb / n) * (sb / n);
  cmp.value_correlation =
      (var_a > 0 && var_b > 0) ? cov / std::sqrt(var_a * var_b) : 1.0;
  cmp.mean_abs_diff = abs_sum / n;
  cmp.max_abs_diff = abs_max;
  cmp.identical_fraction = static_cast<double>(equal) / n;
  return cmp;
}

std::string PlotToCsv(const DensityPlot& plot) {
  std::ostringstream out;
  out << "index,vertex,co_clique_size\n";
  for (size_t i = 0; i < plot.points.size(); ++i) {
    out << i << ',' << plot.points[i].vertex << ',' << plot.points[i].value
        << '\n';
  }
  return out.str();
}

}  // namespace tkc
