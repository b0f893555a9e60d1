#pragma once
/// \file table.hpp
/// \brief Aligned plain-text tables and CSV output for benches and examples.
///
/// Every reproduction bench prints its table/figure data through `Table`,
/// which right-aligns numeric columns and supports a fixed precision per
/// column, plus an optional CSV dump for plotting.

#include <string>
#include <vector>

namespace hepex::util {

/// A simple row/column table with aligned text and CSV rendering.
class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Append one row of already-formatted cells. Must match header count.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  std::size_t rows() const { return rows_.size(); }
  /// Number of columns.
  std::size_t cols() const { return headers_.size(); }

  /// Render as an aligned text table with a header separator.
  std::string to_text() const;

  /// Render as RFC-4180-ish CSV (cells containing commas/quotes are quoted).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `digits` digits after the decimal point.
std::string fmt(double value, int digits = 2);

/// Format like "(n,c)" or "(n,c,f)" configuration tuples in the paper.
std::string fmt_config(int n, int c);
std::string fmt_config(int n, int c, double f_ghz);

}  // namespace hepex::util
