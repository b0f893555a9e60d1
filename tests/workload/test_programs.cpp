// Tests for the five benchmark program specs (§IV-B of the paper).

#include "workload/programs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hepex::workload {
namespace {

TEST(Programs, AllFiveExistInPaperOrder) {
  const auto progs = all_programs();
  ASSERT_EQ(progs.size(), 5u);
  EXPECT_EQ(progs[0].name, "LU");
  EXPECT_EQ(progs[1].name, "SP");
  EXPECT_EQ(progs[2].name, "BT");
  EXPECT_EQ(progs[3].name, "CP");
  EXPECT_EQ(progs[4].name, "LB");
}

TEST(Programs, SuitesAndLanguagesMatchThePaper) {
  EXPECT_EQ(make_bt().suite, "NPB3.3-MZ");
  EXPECT_EQ(make_bt().language, "Fortran");
  EXPECT_EQ(make_cp().suite, "Quantum Espresso (v5.1)");
  EXPECT_EQ(make_cp().language, "Fortran");
  EXPECT_EQ(make_lb().suite, "OpenLB (olb-0.8r0)");
  EXPECT_EQ(make_lb().language, "C++");  // the non-Fortran program
}

TEST(Programs, LookupByName) {
  EXPECT_EQ(program_by_name("BT").name, "BT");
  EXPECT_EQ(program_by_name("LB", InputClass::kW).input, InputClass::kW);
  EXPECT_THROW(program_by_name("XX"), std::invalid_argument);
}

TEST(Programs, PatternsMatchTheApplications) {
  EXPECT_EQ(make_bt().comm.pattern, CommPattern::kHalo3D);
  EXPECT_EQ(make_sp().comm.pattern, CommPattern::kHalo3D);
  EXPECT_EQ(make_lu().comm.pattern, CommPattern::kWavefront);
  EXPECT_EQ(make_cp().comm.pattern, CommPattern::kAllToAll);
  EXPECT_EQ(make_lb().comm.pattern, CommPattern::kRing);
}

TEST(Programs, DemandSignaturesAreOrderedAsPublished) {
  // BT is the most compute-dense; LB streams the most bytes/instruction;
  // LU sends the most (small) messages; CP is the synchronization- and
  // communication-heaviest at scale.
  const auto bt = make_bt();
  const auto lu = make_lu();
  const auto sp = make_sp();
  const auto cp = make_cp();
  const auto lb = make_lb();

  EXPECT_LT(bt.compute.bytes_per_instruction,
            sp.compute.bytes_per_instruction);
  EXPECT_LT(sp.compute.bytes_per_instruction,
            lb.compute.bytes_per_instruction);
  EXPECT_GT(lu.comm_shape(8).messages, bt.comm_shape(8).messages);
  EXPECT_GT(cp.sync.cycles_per_total_core, bt.sync.cycles_per_total_core);
  EXPECT_GT(lb.sync.cycles_per_total_core, cp.sync.cycles_per_total_core);
}

TEST(Programs, WorkingSetSplitsAcrossProcesses) {
  const auto sp = make_sp();
  const double full = sp.working_set_per_process(1);
  const double quarter = sp.working_set_per_process(4);
  // Split shrinks, but ghost cells keep it slightly above full/4.
  EXPECT_LT(quarter, full / 3.5);
  EXPECT_GT(quarter, full / 4.0);
  EXPECT_THROW(sp.working_set_per_process(0), std::invalid_argument);
}

TEST(Programs, SyncCostGrowsWithTotalCores) {
  const auto lb = make_lb();
  EXPECT_GT(lb.sync.cycles(64), lb.sync.cycles(8));
  EXPECT_GT(lb.sync.cycles(8), 0.0);
}

TEST(Programs, TotalInstructionsAccumulateIterations) {
  const auto cp = make_cp();
  EXPECT_DOUBLE_EQ(cp.total_instructions(),
                   cp.compute.instructions_per_iter * cp.iterations);
}


TEST(WithInputClass, ReproducesTheFactoriesExactly) {
  for (const char* name : {"BT", "LU", "SP", "CP", "LB", "MG", "FT", "CG"}) {
    const ProgramSpec a = program_by_name(name, InputClass::kA);
    const ProgramSpec rescaled = with_input_class(a, InputClass::kW);
    const ProgramSpec factory = program_by_name(name, InputClass::kW);
    EXPECT_NEAR(rescaled.compute.instructions_per_iter,
                factory.compute.instructions_per_iter,
                1e-6 * factory.compute.instructions_per_iter);
    EXPECT_NEAR(rescaled.compute.working_set_bytes,
                factory.compute.working_set_bytes,
                1e-6 * factory.compute.working_set_bytes);
    EXPECT_NEAR(rescaled.comm.base_bytes, factory.comm.base_bytes,
                1e-6 * factory.comm.base_bytes);
    EXPECT_EQ(rescaled.iterations, factory.iterations);
    EXPECT_EQ(rescaled.input, InputClass::kW);
  }
}

TEST(WithInputClass, ReproducesTheFactoriesAtEveryClass) {
  // Rescaling a factory spec from any class to any other must land on
  // what the factory itself produces at the target class.
  const InputClass classes[] = {InputClass::kS, InputClass::kW,
                                InputClass::kA, InputClass::kB,
                                InputClass::kC};
  for (const char* name : {"BT", "LU", "SP", "CP", "LB"}) {
    for (const InputClass from : classes) {
      for (const InputClass to : classes) {
        const ProgramSpec rescaled =
            with_input_class(program_by_name(name, from), to);
        const ProgramSpec factory = program_by_name(name, to);
        EXPECT_NEAR(rescaled.compute.instructions_per_iter,
                    factory.compute.instructions_per_iter,
                    1e-9 * factory.compute.instructions_per_iter)
            << name;
        EXPECT_NEAR(rescaled.comm.base_bytes, factory.comm.base_bytes,
                    1e-9 * factory.comm.base_bytes)
            << name;
        EXPECT_EQ(rescaled.iterations, factory.iterations) << name;
      }
    }
  }
}

TEST(WithInputClass, UserProgramRoundTripPinsIntensitiesBitIdentical) {
  // A user-defined (non-factory) spec rescaled A -> C -> A must keep
  // every per-instruction intensity and sync constant bit-identical:
  // with_input_class only touches the size-dependent demands.
  ProgramSpec user = make_sp(InputClass::kA);
  user.name = "USR-roundtrip";
  user.compute.cpi_factor = 1.0 / 3.0;  // awkward, non-representable
  user.compute.bytes_per_instruction = 0.1 + 0.2;  // 0.30000000000000004
  user.compute.reuse_bytes_per_instruction = 2.0 / 7.0;
  user.sync.base_cycles = 1e4 / 3.0;
  user.sync.cycles_per_total_core = 1e3 / 7.0;

  const ProgramSpec c = with_input_class(user, InputClass::kC);
  const ProgramSpec back = with_input_class(c, InputClass::kA);

  const auto bits_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (const ProgramSpec* p : {&c, &back}) {
    EXPECT_TRUE(bits_eq(p->compute.cpi_factor, user.compute.cpi_factor));
    EXPECT_TRUE(
        bits_eq(p->compute.stall_factor, user.compute.stall_factor));
    EXPECT_TRUE(bits_eq(p->compute.bytes_per_instruction,
                        user.compute.bytes_per_instruction));
    EXPECT_TRUE(bits_eq(p->compute.reuse_bytes_per_instruction,
                        user.compute.reuse_bytes_per_instruction));
    EXPECT_TRUE(bits_eq(p->compute.reuse_window_bytes,
                        user.compute.reuse_window_bytes));
    EXPECT_TRUE(
        bits_eq(p->compute.serial_fraction, user.compute.serial_fraction));
    EXPECT_TRUE(bits_eq(p->compute.imbalance, user.compute.imbalance));
    EXPECT_TRUE(bits_eq(p->sync.base_cycles, user.sync.base_cycles));
    EXPECT_TRUE(bits_eq(p->sync.cycles_per_total_core,
                        user.sync.cycles_per_total_core));
    EXPECT_TRUE(bits_eq(p->comm.size_cv, user.comm.size_cv));
    EXPECT_EQ(p->comm.pattern, user.comm.pattern);
  }
  // And the size-dependent demands return to the original within
  // rounding: (dC/dA)^3 * (dA/dC)^3 is not exactly 1 in floating point.
  EXPECT_NEAR(back.compute.instructions_per_iter,
              user.compute.instructions_per_iter,
              1e-12 * user.compute.instructions_per_iter);
  EXPECT_NEAR(back.compute.working_set_bytes,
              user.compute.working_set_bytes,
              1e-12 * user.compute.working_set_bytes);
  EXPECT_NEAR(back.comm.base_bytes, user.comm.base_bytes,
              1e-12 * user.comm.base_bytes);
  EXPECT_EQ(back.input, InputClass::kA);
  EXPECT_EQ(back.iterations, user.iterations);
}

TEST(WithInputClass, ScalesUpAsWellAsDown) {
  const ProgramSpec a = make_sp(InputClass::kA);
  const ProgramSpec c = with_input_class(a, InputClass::kC);
  const double ratio = std::pow(162.0 / 64.0, 3.0);
  EXPECT_NEAR(c.compute.instructions_per_iter / a.compute.instructions_per_iter,
              ratio, 1e-9 * ratio);
}

struct ClassCase {
  InputClass small;
  InputClass big;
};

class ProgramScalingTest
    : public ::testing::TestWithParam<std::tuple<std::string, ClassCase>> {};

TEST_P(ProgramScalingTest, LargerClassesDemandMore) {
  const auto& [name, classes] = GetParam();
  const ProgramSpec small = program_by_name(name, classes.small);
  const ProgramSpec big = program_by_name(name, classes.big);
  EXPECT_GT(big.compute.instructions_per_iter,
            small.compute.instructions_per_iter);
  EXPECT_GT(big.compute.working_set_bytes, small.compute.working_set_bytes);
  EXPECT_GT(big.comm.base_bytes, small.comm.base_bytes);
  EXPECT_GE(big.iterations, small.iterations);
  // Intensity ratios (per-instruction demands) stay class-independent.
  EXPECT_DOUBLE_EQ(big.compute.bytes_per_instruction,
                   small.compute.bytes_per_instruction);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, ProgramScalingTest,
    ::testing::Combine(
        ::testing::Values("BT", "LU", "SP", "CP", "LB"),
        ::testing::Values(ClassCase{InputClass::kW, InputClass::kA},
                          ClassCase{InputClass::kA, InputClass::kB},
                          ClassCase{InputClass::kB, InputClass::kC})));

class ProgramSanityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProgramSanityTest, AllDemandsArePositive) {
  const ProgramSpec p = program_by_name(GetParam());
  EXPECT_GT(p.iterations, 0);
  EXPECT_GT(p.compute.instructions_per_iter, 0.0);
  EXPECT_GT(p.compute.bytes_per_instruction, 0.0);
  EXPECT_GE(p.compute.reuse_bytes_per_instruction, 0.0);
  EXPECT_GT(p.compute.working_set_bytes, 0.0);
  EXPECT_GE(p.compute.serial_fraction, 0.0);
  EXPECT_LT(p.compute.serial_fraction, 0.1);
  EXPECT_GE(p.compute.imbalance, 0.0);
  EXPECT_GT(p.comm.base_bytes, 0.0);
  EXPECT_GT(p.comm.rounds, 0);
  EXPECT_GT(p.sync.base_cycles, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ProgramSanityTest,
                         ::testing::Values("BT", "LU", "SP", "CP", "LB"));

}  // namespace
}  // namespace hepex::workload
