// Aligned plain-text table and CSV output for the benchmark harnesses.
//
// Every bench binary reproduces one table or figure from the paper; this
// printer keeps their output uniform and diffable.
#ifndef MOBISIM_SRC_UTIL_TABLE_H_
#define MOBISIM_SRC_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace mobisim {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  // Adds a row; shorter rows are padded with empty cells, longer rows are an
  // error caught by MOBISIM_CHECK.
  void AddRow(std::vector<std::string> cells);
  // Convenience for mixed-value rows built incrementally.
  TablePrinter& BeginRow();
  TablePrinter& Cell(const std::string& value);
  TablePrinter& Cell(double value, int precision = 2);
  TablePrinter& Cell(std::int64_t value);

  void Print(std::ostream& out) const;

  std::size_t row_count() const { return rows_.size(); }

  static std::string Format(double value, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
  bool row_open_ = false;
};

}  // namespace mobisim

#endif  // MOBISIM_SRC_UTIL_TABLE_H_
