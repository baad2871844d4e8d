#include "src/util/table.h"

#include <algorithm>
#include <cstdio>

#include "src/util/check.h"

namespace mobisim {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MOBISIM_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  MOBISIM_CHECK(cells.size() <= headers_.size());
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

TablePrinter& TablePrinter::BeginRow() {
  if (row_open_) {
    AddRow(std::move(pending_));
    pending_.clear();
  }
  row_open_ = true;
  return *this;
}

TablePrinter& TablePrinter::Cell(const std::string& value) {
  MOBISIM_CHECK(row_open_);
  pending_.push_back(value);
  return *this;
}

TablePrinter& TablePrinter::Cell(double value, int precision) {
  return Cell(Format(value, precision));
}

TablePrinter& TablePrinter::Cell(std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return Cell(std::string(buf));
}

std::string TablePrinter::Format(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

void TablePrinter::Print(std::ostream& out) const {
  // Flush a pending row built via BeginRow()/Cell().
  TablePrinter copy = *this;
  if (copy.row_open_ && !copy.pending_.empty()) {
    copy.AddRow(std::move(copy.pending_));
  }

  std::vector<std::size_t> widths(copy.headers_.size());
  for (std::size_t i = 0; i < copy.headers_.size(); ++i) {
    widths[i] = copy.headers_[i].size();
  }
  for (const auto& row : copy.rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << (i == 0 ? "| " : " | ");
      out << row[i];
      out << std::string(widths[i] - row[i].size(), ' ');
    }
    out << " |\n";
  };

  print_row(copy.headers_);
  out << "|";
  for (const std::size_t w : widths) {
    out << std::string(w + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : copy.rows_) {
    print_row(row);
  }
}

}  // namespace mobisim
