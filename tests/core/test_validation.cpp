// The reproduction's acceptance tests: the validation harness must
// reproduce the paper's Table 2 structure and error bounds.

#include "core/validation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cfg/scenario.hpp"
#include "core/run.hpp"
#include "hw/presets.hpp"
#include "workload/programs.hpp"

namespace hepex::core {
namespace {

using workload::InputClass;

model::CharacterizationOptions fast_options() {
  model::CharacterizationOptions o;
  o.baseline_class = InputClass::kW;
  o.sim.chunks_per_iteration = 8;
  return o;
}

TEST(ValidationGrid, MatchesThePaperCounts) {
  // 96 Xeon configurations (n in {1,2,4,8} x c in 1..8 x 3 f) and
  // 80 ARM configurations (n in {1,2,4,8} x c in 1..4 x 5 f).
  EXPECT_EQ(validation_grid(hw::xeon_cluster(), true).size(), 96u);
  EXPECT_EQ(validation_grid(hw::arm_cluster(), true).size(), 80u);
  EXPECT_EQ(validation_grid(hw::xeon_cluster(), false).size(), 72u);
  EXPECT_EQ(validation_grid(hw::arm_cluster(), false).size(), 60u);
}

TEST(Validation, EmptyConfigListThrows) {
  EXPECT_THROW(validate(hw::xeon_cluster(), workload::make_bt(), {},
                        fast_options()),
               std::invalid_argument);
}

TEST(Validation, RowsCarryConsistentErrorNumbers) {
  const auto m = hw::arm_cluster();
  const auto report =
      validate(m, workload::make_bt(InputClass::kA),
               hw::enumerate_configs(m, {2}), fast_options());
  EXPECT_EQ(report.rows.size(), 20u);
  for (const auto& row : report.rows) {
    EXPECT_GT(row.measured_time_s.value(), 0.0);
    EXPECT_GT(row.predicted_time_s.value(), 0.0);
    EXPECT_GT(row.measured_energy_j.value(), 0.0);
    EXPECT_GT(row.predicted_energy_j.value(), 0.0);
    EXPECT_NEAR(row.time_error_pct,
                q::abs(row.predicted_time_s - row.measured_time_s) /
                    row.measured_time_s * 100.0,
                1e-9);
    EXPECT_GT(row.measured_ucr, 0.0);
    EXPECT_LE(row.measured_ucr, 1.0);
    EXPECT_GT(row.predicted_ucr, 0.0);
    EXPECT_LE(row.predicted_ucr, 1.0);
  }
  EXPECT_EQ(report.time_error.count(), 20u);
  EXPECT_EQ(report.energy_error.count(), 20u);
}

/// Table 2's acceptance criterion: "model accuracy is within reasonable
/// bounds of less than 15%" — checked here per program on both clusters
/// over the n in {2, 4} portion of the grid (the full sweep runs in
/// bench_table2_validation).
/// The program name is held inline, not as a pointer: gtest prints this
/// struct as its raw bytes and the ctest name carries that print-out, so
/// a pointer (or padding) would make the name change from run to run.
/// 15 + 1 bytes keep the struct at the 16 bytes those names have always
/// shown.
struct Table2Case {
  char program[15];
  bool xeon;
};

class Table2AcceptanceTest : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2AcceptanceTest, MeanErrorsWithinPaperBounds) {
  const auto& tc = GetParam();
  const hw::MachineSpec m = tc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  const auto program = workload::program_by_name(tc.program, InputClass::kA);
  const auto report = validate(m, program, hw::enumerate_configs(m, {2, 4}),
                               fast_options());
  EXPECT_LT(report.time_error.mean(), 15.0) << tc.program;
  EXPECT_LT(report.energy_error.mean(), 15.0) << tc.program;
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsBothClusters, Table2AcceptanceTest,
    ::testing::Values(Table2Case{"BT", true}, Table2Case{"LU", true},
                      Table2Case{"SP", true}, Table2Case{"CP", true},
                      Table2Case{"LB", true}, Table2Case{"BT", false},
                      Table2Case{"LU", false}, Table2Case{"SP", false},
                      Table2Case{"CP", false}, Table2Case{"LB", false}),
    [](const ::testing::TestParamInfo<Table2Case>& info) {
      return std::string(info.param.program) +
             (info.param.xeon ? "_Xeon" : "_ARM");
    });

TEST(Validation, PredictionsFollowMeasuredTrends) {
  // Fig. 5's qualitative claim: predictions track measured values across
  // configurations — the ordering of configurations by time must broadly
  // agree. Checked with a rank-agreement count.
  const auto m = hw::xeon_cluster();
  const auto report = validate(m, workload::make_bt(InputClass::kA),
                               validation_grid(m, false), fast_options());
  int agree = 0, total = 0;
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    for (std::size_t j = i + 1; j < report.rows.size(); ++j) {
      const bool measured_less =
          report.rows[i].measured_time_s < report.rows[j].measured_time_s;
      const bool predicted_less =
          report.rows[i].predicted_time_s < report.rows[j].predicted_time_s;
      agree += (measured_less == predicted_less);
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.9);
}

// A scenario without `sweep.nodes` (examples/scenarios/xeon.json) validates
// over the model node counts the machine can measure directly, the same 96
// configurations as the paper's Xeon grid; an explicit node list is used
// as written, so asking for unmeasurable nodes still fails.
TEST(Validation, ScenarioWithoutSweepNodesMeasuresPhysicalNodes) {
  const std::string doc =
      R"({"schema": "hepex-scenario/1", "name": "paper-xeon-sp",
          "platform": {"preset": "xeon"},
          "workload": {"program": "SP", "class": "A"}})";
  const cfg::Scenario s = cfg::load_scenario(doc, "xeon.json");
  const RunResult r = run(s, Method::kValidate);
  ASSERT_TRUE(r.validation.has_value());
  EXPECT_EQ(r.validation->rows.size(), 96u);
  for (const auto& row : r.validation->rows) {
    EXPECT_LE(row.config.nodes, s.machine.nodes_available);
  }

  cfg::Scenario wide = s;
  wide.sweep.nodes = {16};
  EXPECT_THROW(run(wide, Method::kValidate), std::invalid_argument);
}

}  // namespace
}  // namespace hepex::core
