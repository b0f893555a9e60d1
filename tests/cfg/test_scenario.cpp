// Scenario spine contract tests: load→save→load is bit-identical, save is
// a canonical registry-reference-plus-diff, and the derived run inputs
// (sweep space, single config) match the machine defaults they document.

#include "cfg/scenario.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "fault/plan.hpp"
#include "hw/presets.hpp"
#include "workload/programs.hpp"

namespace hepex::cfg {
namespace {

/// Bitwise double comparison: the round-trip guarantee is exact, not
/// within-epsilon.
void expect_bits_eq(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " vs " << b;
}

/// A scenario exercising every section: platform + program field
/// overrides with awkward doubles, sweep, single config, fault plan,
/// sim/obs settings and jobs.
Scenario full_scenario() {
  Scenario s = default_scenario();
  s.name = "round-trip probe";
  s.platform_preset = "arm";
  s.machine = hw::machine_by_name("arm");
  s.machine.node.power.sys_idle_w = q::Watts{14.123456789012345};
  s.machine.network.switch_latency_s = q::Seconds{7.25e-6};
  s.program_name = "CP";
  s.input = workload::InputClass::kB;
  s.program = workload::program_by_name("CP", s.input);
  s.program.compute.serial_fraction = 1.0 / 3.0;
  s.sweep.nodes = {1, 2, 4};
  s.sweep.cores = {1, 4};
  s.config = hw::ClusterConfig{2, 4, s.machine.node.dvfs.f_max()};
  fault::Plan plan;
  plan.seed = 99;
  plan.random_failures.node_mtbf_s = 3600.0;
  plan.crashes.push_back({1, 5.5});
  plan.stragglers.push_back({0, 1.0, 2.0, 1.75});
  s.faults = plan;
  s.sim.chunks_per_iteration = 8;
  s.sim.jitter_cv = 0.0625;
  s.sim.seed = 7;
  s.sim.replicas = 4;
  s.obs.log_level = "warn";
  s.obs.trace_path = "out/trace.json";
  s.obs.profile = true;
  s.jobs = 2;
  s.validate();
  return s;
}

TEST(Scenario, DefaultScenarioValidates) {
  const Scenario s = default_scenario();
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.platform_preset, "xeon");
  EXPECT_EQ(s.program_name, "SP");
}

TEST(Scenario, SaveLoadSaveIsByteIdentical) {
  for (const Scenario& s : {default_scenario(), full_scenario()}) {
    const std::string first = save_scenario(s);
    const std::string second = save_scenario(load_scenario(first));
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size()), 0);
  }
}

TEST(Scenario, RoundTripReproducesDoublesBitForBit) {
  const Scenario s = full_scenario();
  const Scenario r = load_scenario(save_scenario(s));
  expect_bits_eq(r.machine.node.power.sys_idle_w.value(),
                 s.machine.node.power.sys_idle_w.value(), "sys_idle_w");
  expect_bits_eq(r.machine.network.switch_latency_s.value(),
                 s.machine.network.switch_latency_s.value(),
                 "switch_latency_s");
  expect_bits_eq(r.program.compute.serial_fraction,
                 s.program.compute.serial_fraction, "serial_fraction");
  expect_bits_eq(r.sim.jitter_cv, s.sim.jitter_cv, "jitter_cv");
  ASSERT_TRUE(r.config.has_value());
  expect_bits_eq(r.config->f_hz.value(), s.config->f_hz.value(), "config.f");
  ASSERT_TRUE(r.faults.has_value());
  ASSERT_EQ(r.faults->crashes.size(), 1u);
  expect_bits_eq(r.faults->crashes[0].at_s, 5.5, "crash.at");
  expect_bits_eq(r.faults->stragglers[0].slowdown, 1.75, "slowdown");
}

TEST(Scenario, RoundTripReproducesEverySection) {
  const Scenario s = full_scenario();
  const Scenario r = load_scenario(save_scenario(s));
  EXPECT_EQ(r.name, s.name);
  EXPECT_EQ(r.platform_preset, "arm");
  EXPECT_EQ(r.program_name, "CP");
  EXPECT_EQ(r.input, workload::InputClass::kB);
  EXPECT_EQ(r.sweep.nodes, s.sweep.nodes);
  EXPECT_EQ(r.sweep.cores, s.sweep.cores);
  EXPECT_EQ(r.faults->seed, 99u);
  EXPECT_EQ(r.sim.replicas, 4);
  EXPECT_EQ(r.sim.seed, 7u);
  EXPECT_EQ(r.obs.log_level, "warn");
  EXPECT_EQ(r.obs.trace_path, "out/trace.json");
  EXPECT_TRUE(r.obs.profile);
  EXPECT_EQ(r.jobs, 2);
}

TEST(Scenario, SaveIsAReferencePlusDiff) {
  // An untouched preset/program serializes as just the registry keys:
  // no platform internals, no program internals.
  const std::string plain = save_scenario(default_scenario());
  EXPECT_EQ(plain.find("sys_idle"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("instructions"), std::string::npos) << plain;

  // Overriding one field adds exactly that field, not the whole spec.
  Scenario s = default_scenario();
  s.machine.node.power.sys_idle_w = q::Watts{123.5};
  const std::string diffed = save_scenario(s);
  EXPECT_NE(diffed.find("sys_idle"), std::string::npos) << diffed;
  EXPECT_EQ(diffed.find("instructions"), std::string::npos) << diffed;
}

TEST(Scenario, LoadRejectsUnknownKeys) {
  EXPECT_THROW(
      load_scenario(R"({"schema": "hepex-scenario/1", "bogus": 1})"),
      std::invalid_argument);
  EXPECT_THROW(load_scenario(
                   R"({"schema": "hepex-scenario/1", "sim": {"cores": 2}})"),
               std::invalid_argument);
}

TEST(Scenario, LoadRejectsSchemaMismatch) {
  try {
    load_scenario(R"({"schema": "hepex-scenario/9"})", "s.json");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "s.json: schema: expected \"hepex-scenario/1\""),
              std::string::npos)
        << e.what();
  }
}

TEST(Scenario, EmptySweepMatchesModelConfigSpace) {
  const Scenario s = default_scenario();
  EXPECT_EQ(s.sweep_configs(), hw::model_config_space(s.machine));
}

TEST(Scenario, ExplicitSweepAxesCombine) {
  Scenario s = default_scenario();
  s.sweep.nodes = {1, 2};
  s.sweep.cores = {4};
  // Frequencies fall back to all DVFS points.
  const auto configs = s.sweep_configs();
  const std::size_t dvfs = s.machine.node.dvfs.frequencies_hz.size();
  ASSERT_EQ(configs.size(), 2 * 1 * dvfs);
  EXPECT_EQ(configs.front().nodes, 1);
  EXPECT_EQ(configs.front().cores, 4);
  EXPECT_EQ(configs.back().nodes, 2);
}

TEST(Scenario, SingleConfigDefaultsToOneFullNodeAtFMax) {
  const Scenario s = default_scenario();
  const hw::ClusterConfig c = s.single_config();
  EXPECT_EQ(c.nodes, 1);
  EXPECT_EQ(c.cores, s.machine.node.cores);
  expect_bits_eq(c.f_hz.value(), s.machine.node.dvfs.f_max().value(),
                 "f_max");
}

/// An inline platform (no preset) is saved in full through the machine's
/// field list and reloads onto an empty machine.
TEST(Scenario, MachineJsonRoundTripsInlinePlatforms) {
  Scenario s = default_scenario();
  s.platform_preset.clear();
  s.machine = hw::machine_by_name("modern");
  s.machine.name = "tweaked";
  s.machine.node.memory.latency_s = q::Seconds{68.5e-9};
  const Scenario back = load_scenario(save_scenario(s), "test");
  EXPECT_EQ(back.platform_preset, "");
  EXPECT_EQ(back.machine.name, "tweaked");
  expect_bits_eq(back.machine.node.memory.latency_s.value(),
                 s.machine.node.memory.latency_s.value(), "latency");
  EXPECT_EQ(back.machine.node.dvfs.frequencies_hz,
            s.machine.node.dvfs.frequencies_hz);
  EXPECT_EQ(save_scenario(back), save_scenario(s));
}

TEST(Scenario, ValidateRejectsBadCrossFieldState) {
  Scenario s = default_scenario();
  s.sweep.cores = {s.machine.node.cores + 1};
  EXPECT_THROW(s.validate(), std::invalid_argument);

  Scenario t = default_scenario();
  t.sim.replicas = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  Scenario u = default_scenario();
  u.config = hw::ClusterConfig{0, 1, u.machine.node.dvfs.f_max()};
  EXPECT_THROW(u.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace hepex::cfg
