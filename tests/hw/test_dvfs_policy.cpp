// Tests for runtime DVFS policies and their engine integration.

#include "hw/dvfs_policy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "hw/presets.hpp"
#include "obs/registry.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

namespace hepex::hw {
namespace {

DvfsRange xeon_range() { return xeon_cluster().node.dvfs; }

SlackObservation obs_at(q::Hertz f, double busy, double slack,
                        q::Hertz f_configured = q::Hertz{1.8e9}) {
  SlackObservation o;
  o.f_current_hz = f;
  o.f_configured_hz = f_configured;
  o.busy_fraction = busy;
  o.slack_fraction = slack;
  return o;
}

TEST(SlackStepPolicy, RejectsBadParameters) {
  EXPECT_THROW(SlackStepPolicy(0.0, 0.02), std::invalid_argument);
  EXPECT_THROW(SlackStepPolicy(1.5, 0.02), std::invalid_argument);
  EXPECT_THROW(SlackStepPolicy(0.8, -0.1), std::invalid_argument);
}

TEST(SlackStepPolicy, StepsDownWhenSlackCoversTheCost) {
  SlackStepPolicy p(0.8, 0.02);
  const DvfsRange r = xeon_range();
  // 1.8 -> 1.5 costs busy*(1.8/1.5-1) = 0.2*busy; with busy 0.5 the cost
  // is 0.1, which fits inside 0.8 * slack for slack 0.3.
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.8e9}, 0.5, 0.3), r).value(),
                   1.5e9);
}

TEST(SlackStepPolicy, HoldsWhenSlackIsTooSmallForTheCost) {
  SlackStepPolicy p(0.8, 0.02);
  const DvfsRange r = xeon_range();
  // Cost 0.2*0.9 = 0.18 > 0.8*0.1: stay.
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.8e9}, 0.9, 0.1), r).value(),
                   1.8e9);
}

TEST(SlackStepPolicy, StepsUpOnCriticalPath) {
  SlackStepPolicy p(0.8, 0.02);
  const DvfsRange r = xeon_range();
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.2e9}, 0.95, 0.0), r).value(),
                   1.5e9);
  // Already at the top: stays.
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.8e9}, 0.95, 0.0), r).value(),
                   1.8e9);
}

TEST(SlackStepPolicy, NeverExceedsTheConfiguredFrequency) {
  SlackStepPolicy p(0.8, 0.02);
  const DvfsRange r = xeon_range();
  // Configured at 1.5: a critical node at 1.5 must NOT boost to 1.8.
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.5e9}, 0.95, 0.0, q::Hertz{1.5e9}), r).value(),
                   1.5e9);
  // But a throttled node at 1.2 may return to 1.5.
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.2e9}, 0.95, 0.0, q::Hertz{1.5e9}), r).value(),
                   1.5e9);
}

TEST(SlackStepPolicy, CannotStepBelowFmin) {
  SlackStepPolicy p(0.8, 0.02);
  const DvfsRange r = xeon_range();
  EXPECT_DOUBLE_EQ(p.next_frequency(obs_at(q::Hertz{1.2e9}, 0.1, 0.9), r).value(),
                   1.2e9);
}

// ---- engine integration ----------------------------------------------------

workload::ProgramSpec imbalanced_cp() {
  auto p = workload::make_cp(workload::InputClass::kS);
  p.compute.node_imbalance = 0.15;
  return p;
}

/// A policy that always keeps the current frequency.
class HoldPolicy final : public DvfsPolicy {
 public:
  q::Hertz next_frequency(const SlackObservation& obs,
                          const DvfsRange&) override {
    return obs.f_current_hz;
  }
};

// Without a policy the engine keeps every node at the configured
// frequency: no transitions even where a slack policy would step down.
TEST(FixedFrequencyPolicy, NeverChanges) {
  obs::Registry reg;
  trace::SimOptions opt;
  opt.metrics = &reg;
  const auto meas = trace::simulate(xeon_cluster(), imbalanced_cp(),
                                    {4, 4, q::Hertz{1.8e9}}, opt);
  EXPECT_EQ(meas.avg_frequency_hz, q::Hertz{1.8e9});
  ASSERT_NE(reg.find_counter("dvfs.transitions"), nullptr);
  EXPECT_EQ(reg.find_counter("dvfs.transitions")->value(), 0u);
}

TEST(DvfsIntegration, FixedPolicyMatchesNoPolicy) {
  const auto m = xeon_cluster();
  const auto p = imbalanced_cp();
  const ClusterConfig cfg{4, 4, q::Hertz{1.8e9}};
  trace::SimOptions none, fixed;
  fixed.dvfs_policy = std::make_shared<HoldPolicy>();
  const auto a = trace::simulate(m, p, cfg, none);
  const auto b = trace::simulate(m, p, cfg, fixed);
  EXPECT_DOUBLE_EQ(a.time_s.value(), b.time_s.value());
  EXPECT_DOUBLE_EQ(a.energy.total().value(), b.energy.total().value());
  EXPECT_DOUBLE_EQ(b.avg_frequency_hz.value(), 1.8e9);
}

TEST(DvfsIntegration, SlackPolicyLowersAverageFrequency) {
  const auto m = xeon_cluster();
  const auto p = imbalanced_cp();
  const ClusterConfig cfg{4, 4, q::Hertz{1.8e9}};
  trace::SimOptions opt;
  opt.dvfs_policy = slack_step_policy();
  const auto meas = trace::simulate(m, p, cfg, opt);
  EXPECT_LT(meas.avg_frequency_hz, q::Hertz{1.8e9});
  EXPECT_GE(meas.avg_frequency_hz, q::Hertz{1.2e9});
}

TEST(DvfsIntegration, SlackPolicySavesEnergyWithBoundedSlowdown) {
  const auto m = xeon_cluster();
  auto p = workload::make_cp(workload::InputClass::kA);
  p.compute.node_imbalance = 0.15;
  const ClusterConfig cfg{8, 8, q::Hertz{1.8e9}};
  trace::SimOptions fixed, dvfs;
  dvfs.dvfs_policy = slack_step_policy();
  const auto a = trace::simulate(m, p, cfg, fixed);
  const auto b = trace::simulate(m, p, cfg, dvfs);
  EXPECT_LT(b.energy.total(), a.energy.total());
  EXPECT_LT(b.time_s, a.time_s * 1.05);  // bounded performance loss
}

TEST(DvfsIntegration, BalancedProgramHasLittleSlack) {
  const auto m = xeon_cluster();
  const auto p = workload::program_by_name("BT", workload::InputClass::kS);
  const ClusterConfig cfg{4, 2, q::Hertz{1.8e9}};
  const auto meas = trace::simulate(m, p, cfg, {});
  EXPECT_LT(meas.slack_fraction.mean(), 0.08);
}

TEST(DvfsIntegration, ImbalanceCreatesSlack) {
  const auto m = xeon_cluster();
  const auto p = imbalanced_cp();
  const ClusterConfig cfg{4, 2, q::Hertz{1.8e9}};
  const auto meas = trace::simulate(m, p, cfg, {});
  EXPECT_GT(meas.slack_fraction.mean(), 0.05);
  EXPECT_LT(meas.slack_fraction.max(), 1.0);
}

/// A misbehaving policy returning a non-operating-point must be rejected.
class RoguePolicy final : public DvfsPolicy {
 public:
  q::Hertz next_frequency(const SlackObservation&, const DvfsRange&) override {
    return q::Hertz{3.33e9};
  }
};

TEST(DvfsIntegration, RoguePolicyIsRejected) {
  const auto m = xeon_cluster();
  const auto p = workload::program_by_name("BT", workload::InputClass::kS);
  trace::SimOptions opt;
  opt.dvfs_policy = std::make_shared<RoguePolicy>();
  EXPECT_THROW(trace::simulate(m, p, {2, 2, q::Hertz{1.8e9}}, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace hepex::hw
