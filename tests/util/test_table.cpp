// Tests for the aligned-table / CSV rendering used by the benches.

#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace hepex::util {
namespace {

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowWidthMustMatchHeaders) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, TextRenderingContainsAllCells) {
  Table t({"config", "time"});
  t.add_row({"(2,4)", "12.5"});
  t.add_row({"(8,8)", "3.1"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("config"), std::string::npos);
  EXPECT_NE(text.find("(2,4)"), std::string::npos);
  EXPECT_NE(text.find("3.1"), std::string::npos);
}

TEST(Table, TextColumnsAreAligned) {
  Table t({"x", "y"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-cell", "2"});
  const std::string text = t.to_text();
  // Every line has the same length when columns are padded.
  std::istringstream is(text);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len) << "misaligned line: " << line;
  }
}

TEST(Table, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"name"});
  t.add_row({"hello, world"});
  t.add_row({"say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, world\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Fmt, RespectsDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(2.5, 1), "2.5");
}

TEST(Fmt, ConfigTuples) {
  EXPECT_EQ(fmt_config(2, 4), "(2,4)");
  EXPECT_EQ(fmt_config(8, 8, 1.8), "(8,8,1.8)");
  EXPECT_EQ(fmt_config(1, 1, 0.2), "(1,1,0.2)");
}

}  // namespace
}  // namespace hepex::util
