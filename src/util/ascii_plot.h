// ASCII line/scatter charts for the figure-reproduction benches.
//
// Renders one or more (x, y) series into a character grid with axes, tick
// labels, and per-series glyphs, so `bench_fig*` binaries can show the
// paper's figures directly in a terminal alongside their data tables.
#ifndef MOBISIM_SRC_UTIL_ASCII_PLOT_H_
#define MOBISIM_SRC_UTIL_ASCII_PLOT_H_

#include <ostream>
#include <string>
#include <vector>

namespace mobisim {

class AsciiPlot {
 public:
  AsciiPlot(std::string title, std::string x_label, std::string y_label);

  // Adds a named series; `glyph` marks its points.
  void AddSeries(const std::string& name, char glyph, std::vector<double> xs,
                 std::vector<double> ys);

  // Plot area size in characters (default 64 x 20).
  void SetSize(std::size_t width, std::size_t height);
  void Render(std::ostream& out) const;

 private:
  struct Series {
    std::string name;
    char glyph;
    std::vector<double> xs;
    std::vector<double> ys;
  };

  std::string title_;
  std::string x_label_;
  std::string y_label_;
  std::size_t width_ = 64;
  std::size_t height_ = 20;
  std::vector<Series> series_;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_ASCII_PLOT_H_
