#ifndef TKC_VIZ_DENSITY_PLOT_H_
#define TKC_VIZ_DENSITY_PLOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tkc/graph/csr.h"

namespace tkc {

/// One plotted vertex: its X position is its index in `points`, Y is the
/// co_clique_size of the edge that pulled it into the traversal.
struct DensityPlotPoint {
  VertexId vertex;
  uint32_t value;
};

/// An OPTICS-style density plot in the manner of CSV (Section V): vertices
/// are emitted in a traversal order that prefers the frontier vertex whose
/// best edge into the plotted set carries the highest co_clique_size, so
/// clique-like regions appear as contiguous flat plateaus whose height
/// approximates the clique size.
struct DensityPlot {
  std::vector<DensityPlotPoint> points;

  /// Largest Y value (0 for an empty plot).
  uint32_t MaxValue() const;
  /// Index of `v` in `points`, or -1 when absent.
  int64_t PositionOf(VertexId v) const;
};

/// Builds the plot from a per-EdgeId co_clique_size array (κ(e)+2 for the
/// Triangle K-Core plot, CSV's estimate for the CSV plot, or a
/// template-pattern detector's output). Vertices with no positive-valued
/// incident edge are appended at the tail with value 0 when
/// `include_zero_vertices` is set — CSV plots every vertex; the dual-view
/// plot(b) drops the unchanged ones.
DensityPlot BuildDensityPlot(const CsrGraph& g,
                             const std::vector<uint32_t>& co_clique_size,
                             bool include_zero_vertices = true);

/// A maximal run of plot positions sharing one value — a "flat peak", the
/// paper's visual signature of a potential clique.
struct PlotPlateau {
  size_t begin = 0;    // first index in plot.points
  size_t end = 0;      // one past last
  uint32_t value = 0;  // the constant value across the run
  std::vector<VertexId> vertices;
};

/// Extracts maximal constant-value runs of height >= min_value and length
/// >= min_length, sorted by value descending then position (the red-circle
/// regions of Figures 7/9/10/11/12).
std::vector<PlotPlateau> FindPlateaus(const DensityPlot& plot,
                                      uint32_t min_value, size_t min_length);

/// Similarity diagnostics between two plots over the same vertex set, used
/// by the Figure 6 harness to quantify "CSV and Triangle K-Core plots are
/// nearly identical".
struct PlotComparison {
  double value_correlation = 0.0;  // Pearson r of per-vertex values
  double mean_abs_diff = 0.0;      // mean |Δvalue| per vertex
  double max_abs_diff = 0.0;
  double identical_fraction = 0.0;  // vertices with exactly equal values
};

PlotComparison ComparePlots(const DensityPlot& a, const DensityPlot& b);

/// Serializes "index,vertex,value" rows (with header) for external plotting.
std::string PlotToCsv(const DensityPlot& plot);

}  // namespace tkc

#endif  // TKC_VIZ_DENSITY_PLOT_H_
