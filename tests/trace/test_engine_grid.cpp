// Grid-level physical-invariant tests for the execution engine: run each
// program over a configuration grid on both machines and check the
// conservation and consistency properties that must hold everywhere.

#include <gtest/gtest.h>

#include <string>

#include "hw/presets.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

namespace hepex::trace {
namespace {

/// The program name is held inline, not as a pointer: gtest prints this
/// struct as its raw bytes and the ctest name carries that print-out, so
/// a pointer (or padding) would make the name change from run to run.
/// 15 + 1 bytes keep the struct at the 16 bytes those names have always
/// shown.
struct GridCase {
  char program[15];
  bool xeon;
};

class EngineGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(EngineGridTest, InvariantsHoldAcrossTheGrid) {
  const auto& gc = GetParam();
  const hw::MachineSpec m = gc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  const auto p =
      workload::program_by_name(gc.program, workload::InputClass::kS);
  SimOptions opt;
  opt.chunks_per_iteration = 6;

  const auto shape1 = p.comm_shape(1);
  EXPECT_EQ(shape1.messages, 0);

  for (int n : {1, 2, 4, 8}) {
    for (int c : {1, m.node.cores / 2, m.node.cores}) {
      if (c < 1) continue;
      for (q::Hertz f : {m.node.dvfs.f_min(), m.node.dvfs.f_max()}) {
        const hw::ClusterConfig cfg{n, c, f};
        const Measurement meas = simulate(m, p, cfg, opt);
        const std::string tag = gc.program + std::string(" (") +
                                std::to_string(n) + "," + std::to_string(c) +
                                ")";

        // Time and energy are positive and finite.
        ASSERT_GT(meas.time_s.value(), 0.0) << tag;
        ASSERT_GT(meas.energy.total().value(), 0.0) << tag;

        // Counters: work cycles dominate non-memory stalls; instructions
        // are positive; busy time fits inside the node's capacity — the
        // c compute cores plus the serialized messaging context that
        // handles the MPI/TCP stack.
        EXPECT_GT(meas.counters.work_cycles,
                  meas.counters.nonmem_stall_cycles)
            << tag;
        EXPECT_GT(meas.counters.instructions, 0.0) << tag;
        EXPECT_LE(meas.counters.cpu_busy_seconds,
                  1.02 * n * (c + 1) * meas.time_s)
            << tag;

        // T_CPU can never exceed the wall clock; UCR in (0, 1].
        EXPECT_LE(meas.t_cpu_s, meas.time_s * 1.001) << tag;
        EXPECT_GT(meas.ucr(), 0.0) << tag;
        EXPECT_LE(meas.ucr(), 1.0) << tag;

        // Energy accounting: idle = P_idle * T * n exactly.
        EXPECT_NEAR(meas.energy.idle_j.value(),
                    (m.node.power.sys_idle_w * meas.time_s * n).value(),
                    1e-6 * meas.energy.idle_j.value())
            << tag;

        // Memory controllers can never be busy longer than n * T.
        EXPECT_LE(meas.mem_busy_s, 1.001 * n * meas.time_s) << tag;

        // Messages match the decomposition exactly.
        const auto shape = p.comm_shape(n);
        EXPECT_DOUBLE_EQ(
            meas.messages.messages,
            static_cast<double>(shape.messages) * n * p.iterations)
            << tag;

        // Slack observations exist for every (node, iteration).
        EXPECT_EQ(meas.slack_fraction.count(),
                  static_cast<std::size_t>(n) * p.iterations)
            << tag;

        // Iteration timeline: one record per iteration, durations sum
        // to the wall clock, and the drain tail fits inside iterations.
        EXPECT_EQ(meas.iteration_s.count(),
                  static_cast<std::size_t>(p.iterations))
            << tag;
        EXPECT_NEAR(meas.iteration_s.sum(), meas.time_s.value(),
                    1e-6 * meas.time_s.value())
            << tag;
        EXPECT_GE(meas.drain_s.min(), 0.0) << tag;
        EXPECT_LE(meas.drain_s.max(), meas.iteration_s.max() * 1.001)
            << tag;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsBothMachines, EngineGridTest,
    ::testing::Values(GridCase{"BT", true}, GridCase{"LU", true},
                      GridCase{"SP", true}, GridCase{"CP", true},
                      GridCase{"LB", true}, GridCase{"MG", true},
                      GridCase{"FT", true}, GridCase{"CG", true},
                      GridCase{"BT", false}, GridCase{"LU", false},
                      GridCase{"SP", false}, GridCase{"CP", false},
                      GridCase{"LB", false}, GridCase{"MG", false},
                      GridCase{"FT", false}, GridCase{"CG", false}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return std::string(info.param.program) +
             (info.param.xeon ? "_Xeon" : "_ARM");
    });

}  // namespace
}  // namespace hepex::trace
