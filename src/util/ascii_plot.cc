#include "src/util/ascii_plot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/util/check.h"

namespace mobisim {

AsciiPlot::AsciiPlot(std::string title, std::string x_label, std::string y_label)
    : title_(std::move(title)), x_label_(std::move(x_label)), y_label_(std::move(y_label)) {}

void AsciiPlot::AddSeries(const std::string& name, char glyph, std::vector<double> xs,
                          std::vector<double> ys) {
  MOBISIM_CHECK(xs.size() == ys.size());
  series_.push_back(Series{name, glyph, std::move(xs), std::move(ys)});
}

void AsciiPlot::SetSize(std::size_t width, std::size_t height) {
  MOBISIM_CHECK(width >= 16 && height >= 6);
  width_ = width;
  height_ = height;
}

void AsciiPlot::Render(std::ostream& out) const {
  double x_lo = std::numeric_limits<double>::infinity();
  double x_hi = -x_lo;
  double y_lo = x_lo;
  double y_hi = x_hi;
  bool any = false;
  for (const Series& s : series_) {
    for (std::size_t i = 0; i < s.xs.size(); ++i) {
      any = true;
      x_lo = std::min(x_lo, s.xs[i]);
      x_hi = std::max(x_hi, s.xs[i]);
      y_lo = std::min(y_lo, s.ys[i]);
      y_hi = std::max(y_hi, s.ys[i]);
    }
  }
  if (!any) {
    out << title_ << ": (no data)\n";
    return;
  }
  if (x_hi == x_lo) {
    x_hi = x_lo + 1.0;
  }
  if (y_hi == y_lo) {
    y_hi = y_lo + 1.0;
  }
  const double margin = 0.05 * (y_hi - y_lo);
  y_lo -= margin;
  y_hi += margin;

  std::vector<std::string> grid(height_, std::string(width_, ' '));
  auto plot_point = [&](double x, double y, char glyph) {
    const double fx = (x - x_lo) / (x_hi - x_lo);
    const double fy = (y - y_lo) / (y_hi - y_lo);
    const auto col = static_cast<std::size_t>(
        std::lround(fx * static_cast<double>(width_ - 1)));
    const auto row = static_cast<std::size_t>(
        std::lround((1.0 - fy) * static_cast<double>(height_ - 1)));
    if (row < height_ && col < width_) {
      grid[row][col] = glyph;
    }
  };
  // Connect consecutive points with interpolated samples so sparse series
  // read as lines.
  for (const Series& s : series_) {
    for (std::size_t i = 0; i + 1 < s.xs.size(); ++i) {
      const int steps = static_cast<int>(width_);
      for (int k = 0; k <= steps; ++k) {
        const double t = static_cast<double>(k) / steps;
        plot_point(s.xs[i] + t * (s.xs[i + 1] - s.xs[i]),
                   s.ys[i] + t * (s.ys[i + 1] - s.ys[i]), s.glyph);
      }
    }
    if (s.xs.size() == 1) {
      plot_point(s.xs[0], s.ys[0], s.glyph);
    }
  }

  out << title_ << "\n";
  char buf[64];
  for (std::size_t row = 0; row < height_; ++row) {
    const double y = y_hi - (y_hi - y_lo) * static_cast<double>(row) /
                                static_cast<double>(height_ - 1);
    if (row % 4 == 0 || row == height_ - 1) {
      std::snprintf(buf, sizeof(buf), "%10.2f |", y);
    } else {
      std::snprintf(buf, sizeof(buf), "%10s |", "");
    }
    out << buf << grid[row] << "\n";
  }
  out << std::string(11, ' ') << '+' << std::string(width_, '-') << "\n";
  std::snprintf(buf, sizeof(buf), "%10.2f", x_lo);
  out << std::string(11, ' ') << buf;
  std::snprintf(buf, sizeof(buf), "%.2f", x_hi);
  const std::string hi_label(buf);
  const std::size_t pad = width_ > hi_label.size() + 10 ? width_ - hi_label.size() - 10 : 1;
  out << std::string(pad, ' ') << hi_label << "\n";
  out << std::string(13, ' ') << x_label_ << "  (y: " << y_label_ << ")\n";
  for (const Series& s : series_) {
    out << std::string(13, ' ') << s.glyph << " = " << s.name << "\n";
  }
}

}  // namespace mobisim
