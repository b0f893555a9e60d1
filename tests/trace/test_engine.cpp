// Tests for the discrete-event execution engine — the "direct
// measurement" substitute. These check physical invariants (conservation,
// monotonicity, determinism) across programs and machines.

#include "trace/execution_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "hw/presets.hpp"
#include "workload/programs.hpp"

namespace hepex::trace {
namespace {

using hw::ClusterConfig;
using workload::InputClass;

SimOptions fast() {
  SimOptions o;
  o.chunks_per_iteration = 6;
  return o;
}

workload::ProgramSpec tiny(const std::string& name) {
  // Class S keeps unit tests fast; the paper-scale experiments use A+.
  return workload::program_by_name(name, InputClass::kS);
}

TEST(Engine, DeterministicForEqualSeeds) {
  const auto m = hw::xeon_cluster();
  const auto p = tiny("SP");
  const ClusterConfig cfg{4, 4, q::Hertz{1.5e9}};
  const Measurement a = simulate(m, p, cfg, fast());
  const Measurement b = simulate(m, p, cfg, fast());
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
}

TEST(Engine, DifferentSeedsJitterTheRun) {
  const auto m = hw::xeon_cluster();
  const auto p = tiny("SP");
  const ClusterConfig cfg{2, 2, q::Hertz{1.5e9}};
  SimOptions o1 = fast(), o2 = fast();
  o2.seed = o1.seed + 1;
  const Measurement a = simulate(m, p, cfg, o1);
  const Measurement b = simulate(m, p, cfg, o2);
  EXPECT_NE(a.time_s, b.time_s);
  // But only by OS-noise magnitudes (a few percent).
  EXPECT_NEAR(a.time_s / b.time_s, 1.0, 0.1);
}

TEST(Engine, ZeroJitterIsNoiseFree) {
  const auto m = hw::arm_cluster();
  const auto p = tiny("BT");
  SimOptions o = fast();
  o.jitter_cv = 0.0;
  const ClusterConfig cfg{1, 2, q::Hertz{0.8e9}};
  const Measurement a = simulate(m, p, cfg, o);
  o.seed += 99;  // seed must not matter without noise sources... except
                 // message sizes; single node has no messages.
  const Measurement b = simulate(m, p, cfg, o);
  EXPECT_DOUBLE_EQ(a.time_s.value(), b.time_s.value());
}

TEST(Engine, RejectsNonPhysicalConfigs) {
  const auto m = hw::xeon_cluster();
  const auto p = tiny("BT");
  EXPECT_THROW(simulate(m, p, {16, 1, q::Hertz{1.2e9}}, fast()),
               std::invalid_argument);  // only 8 physical nodes
  EXPECT_THROW(simulate(m, p, {1, 12, q::Hertz{1.2e9}}, fast()),
               std::invalid_argument);
  EXPECT_THROW(simulate(m, p, {1, 1, q::Hertz{2.4e9}}, fast()),
               std::invalid_argument);
}

TEST(Engine, RejectsBadOptions) {
  const auto m = hw::xeon_cluster();
  auto p = tiny("BT");
  SimOptions o = fast();
  o.chunks_per_iteration = 0;
  EXPECT_THROW(simulate(m, p, {1, 1, q::Hertz{1.2e9}}, o), std::invalid_argument);
  p.iterations = 0;
  EXPECT_THROW(simulate(m, p, {1, 1, q::Hertz{1.2e9}}, fast()), std::invalid_argument);
}

TEST(Engine, SingleNodeHasNoMessages) {
  const auto m = hw::xeon_cluster();
  const Measurement meas = simulate(m, tiny("CP"), {1, 4, q::Hertz{1.5e9}}, fast());
  EXPECT_EQ(meas.messages.messages, 0.0);
  EXPECT_EQ(meas.net_busy_s.value(), 0.0);
  EXPECT_EQ(meas.energy.net_j.value(), 0.0);
}

TEST(Engine, MultiNodeMessageCountMatchesPattern) {
  const auto m = hw::xeon_cluster();
  const auto p = tiny("CP");  // all-to-all: (n-1)*rounds per process
  const int n = 4;
  const Measurement meas =
      simulate(m, p, {n, 1, q::Hertz{1.8e9}}, fast());
  const auto shape = p.comm_shape(n);
  EXPECT_DOUBLE_EQ(meas.messages.messages,
                   static_cast<double>(shape.messages) * n * p.iterations);
  EXPECT_NEAR(meas.messages.bytes_per_message().value(), shape.bytes_per_msg,
              0.05 * shape.bytes_per_msg);
}

TEST(Engine, UtilizationIsAFraction) {
  const auto m = hw::arm_cluster();
  const Measurement meas = simulate(m, tiny("LU"), {4, 4, q::Hertz{1.1e9}}, fast());
  EXPECT_GT(meas.cpu_utilization, 0.0);
  EXPECT_LE(meas.cpu_utilization, 1.05);  // rounding headroom
}

TEST(Engine, UcrIsInUnitInterval) {
  const auto m = hw::xeon_cluster();
  for (const char* name : {"BT", "LB"}) {
    const Measurement meas = simulate(m, tiny(name), {2, 8, q::Hertz{1.8e9}}, fast());
    EXPECT_GT(meas.ucr(), 0.0);
    EXPECT_LE(meas.ucr(), 1.0);
  }
}

TEST(Engine, EnergyComponentsAreNonNegativeAndSum) {
  const auto m = hw::arm_cluster();
  const Measurement meas = simulate(m, tiny("LB"), {4, 2, q::Hertz{0.8e9}}, fast());
  const auto& e = meas.energy;
  EXPECT_GT(e.cpu_active_j.value(), 0.0);
  EXPECT_GE(e.cpu_stall_j.value(), 0.0);
  EXPECT_GE(e.mem_j.value(), 0.0);
  EXPECT_GE(e.net_j.value(), 0.0);
  EXPECT_GT(e.idle_j.value(), 0.0);
  EXPECT_NEAR(e.total().value(),
              (e.cpu_active_j + e.cpu_stall_j + e.mem_j + e.net_j + e.idle_j)
                  .value(),
              1e-9);
  // Idle power dominates on these platforms for small runs.
  EXPECT_GT(e.idle_j, 0.2 * e.total());
}

TEST(Engine, CountersScaleWithInputClass) {
  const auto m = hw::xeon_cluster();
  const ClusterConfig cfg{1, 4, q::Hertz{1.8e9}};
  const Measurement s = simulate(m, tiny("SP"), cfg, fast());
  const Measurement w =
      simulate(m, workload::program_by_name("SP", InputClass::kW), cfg,
               fast());
  const double cell_ratio = std::pow(40.0 / 12.0, 3.0) *
                            (40.0 / 20.0);  // cells * iterations
  EXPECT_NEAR(w.counters.instructions / s.counters.instructions, cell_ratio,
              0.15 * cell_ratio);
}

TEST(Engine, SyncOverheadInflatesInstructionsAtScale) {
  // The paper's LB observation: more nodes x cores => more instructions
  // for the same program (§IV-C, error source 2).
  const auto m = hw::xeon_cluster();
  const auto p = tiny("LB");
  const Measurement small = simulate(m, p, {1, 1, q::Hertz{1.8e9}}, fast());
  const Measurement big = simulate(m, p, {8, 8, q::Hertz{1.8e9}}, fast());
  EXPECT_GT(big.counters.instructions, small.counters.instructions * 1.02);
}

/// The program name is held inline, not as a pointer: gtest prints this
/// struct as its raw bytes and the ctest name carries that print-out, so
/// a pointer would make the name change with the load address. 15 + 1
/// bytes keep the struct at the 16 bytes those names have always shown.
struct ScaleCase {
  char program[15];
  bool xeon;
};

class EngineScalingTest : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(EngineScalingTest, MoreNodesReduceTime) {
  const auto& pc = GetParam();
  const auto m = pc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  const auto p = tiny(pc.program);
  const q::Hertz f = m.node.dvfs.f_max();
  const q::Seconds t1 = simulate(m, p, {1, 2, f}, fast()).time_s;
  const q::Seconds t4 = simulate(m, p, {4, 2, f}, fast()).time_s;
  EXPECT_LT(t4, t1);
}

TEST_P(EngineScalingTest, HigherFrequencyReducesTime) {
  const auto& pc = GetParam();
  const auto m = pc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  const auto p = tiny(pc.program);
  const q::Seconds t_lo =
      simulate(m, p, {2, 2, m.node.dvfs.f_min()}, fast()).time_s;
  const q::Seconds t_hi =
      simulate(m, p, {2, 2, m.node.dvfs.f_max()}, fast()).time_s;
  EXPECT_LT(t_hi, t_lo);
}

TEST_P(EngineScalingTest, MoreCoresNeverSlowDownTiny) {
  const auto& pc = GetParam();
  const auto m = pc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  const auto p = tiny(pc.program);
  const q::Hertz f = m.node.dvfs.f_min();
  const q::Seconds t1 = simulate(m, p, {2, 1, f}, fast()).time_s;
  const q::Seconds tc = simulate(m, p, {2, m.node.cores, f}, fast()).time_s;
  EXPECT_LT(tc, t1 * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    ProgramsAndMachines, EngineScalingTest,
    ::testing::Values(ScaleCase{"BT", true}, ScaleCase{"LU", true},
                      ScaleCase{"SP", true}, ScaleCase{"CP", true},
                      ScaleCase{"LB", true}, ScaleCase{"BT", false},
                      ScaleCase{"LU", false}, ScaleCase{"SP", false},
                      ScaleCase{"CP", false}, ScaleCase{"LB", false}),
    [](const ::testing::TestParamInfo<ScaleCase>& info) {
      return std::string(info.param.program) +
             (info.param.xeon ? "_Xeon" : "_ARM");
    });

}  // namespace
}  // namespace hepex::trace
