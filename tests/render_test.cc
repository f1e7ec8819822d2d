#include <algorithm>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"
#include "tkc/viz/ascii_chart.h"
#include "tkc/viz/svg.h"

namespace tkc {
namespace {

DensityPlot MakePlot() {
  Graph builder(20);
  PlantClique(builder, {0, 1, 2, 3, 4, 5});
  const CsrGraph g(builder);
  TriangleCoreResult r = ComputeTriangleCores(g);
  std::vector<uint32_t> co(g.EdgeCapacity(), 0);
  g.ForEachEdge([&](EdgeId e, const Edge&) { co[e] = r.kappa[e] + 2; });
  return BuildDensityPlot(g, co);
}

TEST(AsciiChartTest, EmptyPlot) {
  DensityPlot empty;
  EXPECT_NE(RenderAsciiChart(empty).find("(empty plot)"), std::string::npos);
}

TEST(AsciiChartTest, RendersMarksAndAxis) {
  DensityPlot plot = MakePlot();
  std::string chart = RenderAsciiChart(plot);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find("max co_clique_size=6"), std::string::npos);
  // Height rows + axis + caption.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 16 + 2);
}

TEST(AsciiChartTest, RespectsDimensions) {
  DensityPlot plot = MakePlot();
  AsciiChartOptions opt;
  opt.width = 10;
  opt.height = 4;
  opt.show_axis = false;
  std::string chart = RenderAsciiChart(plot, opt);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 4);
  size_t first_line = chart.find('\n');
  EXPECT_LE(first_line, 10u);
}

TEST(AsciiChartTest, TallColumnsReachTop) {
  DensityPlot plot;
  for (uint32_t i = 0; i < 10; ++i) plot.points.push_back({i, 10});
  AsciiChartOptions opt;
  opt.height = 3;
  opt.show_axis = false;
  std::string chart = RenderAsciiChart(plot, opt);
  // Every row fully marked: all values equal the max.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '#'), 30);
}

TEST(SvgTest, WellFormedDocument) {
  DensityPlot plot = MakePlot();
  SvgOptions opt;
  opt.title = "test plot";
  opt.markers.push_back({0, 6, "clique", "#d62728"});
  std::string svg = RenderSvg(plot, opt);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("test plot"), std::string::npos);
  EXPECT_NE(svg.find("clique"), std::string::npos);
}

TEST(SvgTest, DualLayoutStacksTwoPlots) {
  DensityPlot plot = MakePlot();
  SvgOptions top, bottom;
  top.title = "plot-a";
  bottom.title = "plot-b";
  std::string svg = RenderDualSvg(plot, plot, top, bottom);
  EXPECT_NE(svg.find("plot-a"), std::string::npos);
  EXPECT_NE(svg.find("plot-b"), std::string::npos);
  // Two polylines.
  size_t first = svg.find("polyline");
  EXPECT_NE(svg.find("polyline", first + 1), std::string::npos);
}

TEST(SvgTest, WriteTextFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/tkc_svg_test.svg";
  EXPECT_TRUE(WriteTextFile(path, "<svg/>"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "<svg/>");
}

TEST(SvgTest, WriteTextFileFailsOnBadPath) {
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir-xyz/file.svg", "x"));
}

}  // namespace
}  // namespace tkc
