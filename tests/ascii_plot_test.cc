// Tests for the ASCII chart renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/util/ascii_plot.h"

namespace mobisim {
namespace {

TEST(AsciiPlotTest, RendersTitleSeriesAndAxes) {
  AsciiPlot plot("Test chart", "x", "y");
  plot.AddSeries("line", '*', {0.0, 1.0, 2.0}, {0.0, 1.0, 4.0});
  std::ostringstream out;
  plot.Render(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Test chart"), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find("* = line"), std::string::npos);
  EXPECT_NE(text.find('+'), std::string::npos);  // axis corner
}

TEST(AsciiPlotTest, EmptyPlotDoesNotCrash) {
  AsciiPlot plot("Empty", "x", "y");
  std::ostringstream out;
  plot.Render(out);
  EXPECT_NE(out.str().find("no data"), std::string::npos);
}

TEST(AsciiPlotTest, SinglePointSeries) {
  AsciiPlot plot("Dot", "x", "y");
  plot.AddSeries("dot", 'o', {5.0}, {7.0});
  std::ostringstream out;
  plot.Render(out);
  EXPECT_NE(out.str().find('o'), std::string::npos);
}

TEST(AsciiPlotTest, MonotoneSeriesRendersMonotonically) {
  // The glyph for the max-y point must appear on an earlier (higher) row
  // than the glyph for the min-y point.
  AsciiPlot plot("Mono", "x", "y");
  plot.AddSeries("up", '#', {0.0, 10.0}, {0.0, 100.0});
  std::ostringstream out;
  plot.Render(out);
  const std::string text = out.str();
  const std::size_t first_hash = text.find('#');
  const std::size_t last_hash = text.rfind('#');
  // Higher y (later x) drawn on an earlier line; line order in the string is
  // top to bottom.
  const std::size_t first_line = std::count(text.begin(), text.begin() + first_hash, '\n');
  const std::size_t last_line = std::count(text.begin(), text.begin() + last_hash, '\n');
  EXPECT_LT(first_line, last_line);
  // The top point is at the right edge, the bottom at the left.
  const std::size_t top_col = first_hash - text.rfind('\n', first_hash);
  const std::size_t bottom_col = last_hash - text.rfind('\n', last_hash);
  EXPECT_GT(top_col, bottom_col);
}

}  // namespace
}  // namespace mobisim
