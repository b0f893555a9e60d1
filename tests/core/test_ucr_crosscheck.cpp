// Cross-check of Figures 10/11: the UCR the model predicts must track
// the UCR the simulated measurement produces, configuration by
// configuration — UCR is a *ratio* of predicted quantities, so this is a
// stricter consistency test than time or energy alone.

#include <gtest/gtest.h>

#include <string>

#include "core/validation.hpp"
#include "hw/presets.hpp"
#include "util/statistics.hpp"
#include "workload/programs.hpp"

namespace hepex::core {
namespace {

using workload::InputClass;

/// The program name is held inline, not as a pointer: gtest prints this
/// struct as its raw bytes and the ctest name carries that print-out, so
/// a pointer (or padding) would make the name change from run to run.
/// 15 + 1 bytes keep the struct at the 16 bytes those names have always
/// shown.
struct UcrCase {
  char program[15];
  bool xeon;
};

class UcrCrossCheckTest : public ::testing::TestWithParam<UcrCase> {};

TEST_P(UcrCrossCheckTest, PredictedUcrTracksMeasuredUcr) {
  const auto& uc = GetParam();
  const hw::MachineSpec m = uc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  model::CharacterizationOptions o;
  o.baseline_class = InputClass::kW;
  o.sim.chunks_per_iteration = 8;
  const auto program = workload::program_by_name(uc.program, InputClass::kA);
  const auto report =
      validate(m, program, hw::enumerate_configs(m, {1, 4, 8}), o);

  util::Summary abs_diff;
  for (const auto& row : report.rows) {
    abs_diff.add(std::abs(row.predicted_ucr - row.measured_ucr));
  }
  // UCR is in [0,1]; mean absolute deviation below 0.08 keeps every
  // qualitative claim of Figs. 10/11 intact.
  EXPECT_LT(abs_diff.mean(), 0.08) << uc.program;
  EXPECT_LT(abs_diff.max(), 0.20) << uc.program;

  // The paper's ordering claim: UCR decreases from the single-node
  // single-core configuration to the largest configuration, in both
  // views.
  const auto& first = report.rows.front();   // (1, 1, f_min)
  const auto& last = report.rows.back();     // (8, c_max, f_max)
  EXPECT_GT(first.measured_ucr, last.measured_ucr) << uc.program;
  EXPECT_GT(first.predicted_ucr, last.predicted_ucr) << uc.program;
}

INSTANTIATE_TEST_SUITE_P(
    FiguresTenEleven, UcrCrossCheckTest,
    ::testing::Values(UcrCase{"BT", true}, UcrCase{"SP", true},
                      UcrCase{"LB", true}, UcrCase{"BT", false},
                      UcrCase{"CP", false}, UcrCase{"LB", false}),
    [](const ::testing::TestParamInfo<UcrCase>& info) {
      return std::string(info.param.program) +
             (info.param.xeon ? "_Xeon" : "_ARM");
    });

TEST(UcrCrossCheck, XeonBeatsArmForBt) {
  // The headline ISA contrast of §V-B, in the measured view.
  model::CharacterizationOptions o;
  o.baseline_class = InputClass::kW;
  o.sim.chunks_per_iteration = 8;
  const auto bt = workload::make_bt(InputClass::kA);
  const auto xeon = validate(hw::xeon_cluster(), bt,
                             {{1, 1, q::Hertz{1.2e9}}}, o);
  const auto arm = validate(hw::arm_cluster(), bt, {{1, 1, q::Hertz{0.2e9}}}, o);
  EXPECT_GT(xeon.rows.front().measured_ucr,
            arm.rows.front().measured_ucr + 0.15);
}

}  // namespace
}  // namespace hepex::core
