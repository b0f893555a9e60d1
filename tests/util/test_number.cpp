// Locale-free number reading: util::read_double keeps strtod's "C"
// grammar, and every text format that reads numbers through it (flags,
// scenario quantities, traces) ignores LC_NUMERIC.

#include "util/number.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <string>

#include "cfg/scenario.hpp"
#include "util/cli.hpp"
#include "workload/programs.hpp"
#include "workload/trace_format.hpp"

namespace hepex::util {
namespace {

TEST(ReadDouble, KeepsStrtodsGrammar) {
  EXPECT_EQ(read_double("1.8GHz").value, 1.8);
  EXPECT_EQ(read_double("1.8GHz").used, 3u);
  EXPECT_EQ(read_double("  +2.5e3 ").value, 2500.0);
  EXPECT_EQ(read_double("  +2.5e3 ").used, 8u);
  EXPECT_EQ(read_double("-.5").value, -0.5);
  EXPECT_EQ(read_double("1.").used, 2u);
  EXPECT_EQ(read_double("1e+").used, 1u);
  EXPECT_EQ(read_double("0x1.8p1").value, 3.0);
  EXPECT_EQ(read_double("0x").used, 1u);
  EXPECT_TRUE(std::isinf(read_double("-Infinity").value));
  EXPECT_TRUE(std::isnan(read_double("nan").value));
  for (const char* bad : {"", " ", "+", "+-1", "--1", ".", "e5", "GHz"}) {
    EXPECT_EQ(read_double(bad).used, 0u) << bad;
  }
}

TEST(ReadDouble, OutOfRangeReadsAsZeroOrInfinity) {
  const ReadDouble tiny = read_double("-1.5e-400");
  EXPECT_TRUE(tiny.out_of_range);
  EXPECT_EQ(tiny.value, 0.0);
  EXPECT_TRUE(std::signbit(tiny.value));
  EXPECT_EQ(tiny.used, 9u);
  const ReadDouble huge = read_double("2e400");
  EXPECT_TRUE(huge.out_of_range);
  EXPECT_EQ(huge.value, HUGE_VAL);
  EXPECT_EQ(read_double("0.0000001e-320").value, 0.0);
  EXPECT_EQ(read_double("0x1p-2000").value, 0.0);
  EXPECT_TRUE(std::isinf(read_double("0x1p2000").value));
  EXPECT_FALSE(read_double("4e-320").out_of_range);
}

TEST(NumberLocale, FlagsScenariosAndTracesIgnoreTheNumericLocale) {
  // A host program may switch LC_NUMERIC to a decimal-comma locale; a
  // frequency flag, a scenario quantity and a trace record must still
  // read a decimal point.
  const std::string previous = std::setlocale(LC_NUMERIC, nullptr);
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    GTEST_SKIP() << "locale de_DE.UTF-8 is not installed";
  }
  const std::string trace = workload::write_trace(
      workload::program_by_name("SP", workload::InputClass::kS));
  double f_hz = 0.0;
  double config_f_hz = 0.0;
  std::string trace_again;
  try {
    f_hz = parse_frequency("1.8GHz").value();
    const cfg::Scenario s = cfg::load_scenario(R"({
      "schema": "hepex-scenario/1",
      "config": {"n": 2, "c": 4, "f": "1.8GHz"}
    })");
    config_f_hz = s.config->f_hz.value();
    trace_again = workload::write_trace(
        workload::lower_trace(workload::parse_trace(trace)));
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  std::setlocale(LC_NUMERIC, previous.c_str());
  EXPECT_EQ(f_hz, 1.8e9);
  EXPECT_EQ(config_f_hz, 1.8e9);
  EXPECT_EQ(trace_again, trace);
}

}  // namespace
}  // namespace hepex::util
