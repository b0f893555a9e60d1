#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace hepex::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  HEPEX_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  HEPEX_REQUIRE(cells.size() == headers_.size(),
                "row width must match header count");
  rows_.push_back(std::move(cells));
}

std::string Table::to_text() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
  for (const auto& row : rows_)
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << (i == 0 ? "| " : " ");
      os << cells[i];
      os << std::string(width[i] - cells[i].size(), ' ') << " |";
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    os << (i == 0 ? "|" : "") << std::string(width[i] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      os << escape(cells[i]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string fmt_config(int n, int c) {
  std::ostringstream os;
  os << '(' << n << ',' << c << ')';
  return os.str();
}

std::string fmt_config(int n, int c, double f_ghz) {
  std::ostringstream os;
  os << '(' << n << ',' << c << ',' << fmt(f_ghz, 1) << ')';
  return os.str();
}

}  // namespace hepex::util
