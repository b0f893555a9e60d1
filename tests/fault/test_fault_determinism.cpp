// Determinism under fault injection: identical (SimOptions::seed, Plan)
// pairs must produce bit-identical Measurements, with or without
// observability sinks attached. This extends the fault-free
// zero-perturbation guarantee of tests/trace/test_determinism.cpp to
// degraded-mode runs, where recovery, retransmission and throttle events
// add their own trace spans and metrics.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/scenario.hpp"
#include "core/run.hpp"
#include "fault/plan.hpp"
#include "hw/presets.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace_sink.hpp"
#include "trace/ensemble.hpp"
#include "trace/execution_engine.hpp"
#include "trace/scenario.hpp"
#include "workload/programs.hpp"

#ifndef HEPEX_SOURCE_DIR
#error "HEPEX_SOURCE_DIR must point at the repo root"
#endif

namespace hepex::trace {
namespace {

/// Bit-identity on every field, fault observables included.
void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.t_cpu_s, b.t_cpu_s);
  EXPECT_EQ(a.t_fault_s, b.t_fault_s);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.avg_frequency_hz, b.avg_frequency_hz);
  EXPECT_EQ(a.outcome, b.outcome);

  EXPECT_EQ(a.energy.cpu_active_j, b.energy.cpu_active_j);
  EXPECT_EQ(a.energy.cpu_stall_j, b.energy.cpu_stall_j);
  EXPECT_EQ(a.energy.mem_j, b.energy.mem_j);
  EXPECT_EQ(a.energy.net_j, b.energy.net_j);
  EXPECT_EQ(a.energy.idle_j, b.energy.idle_j);
  EXPECT_EQ(a.energy.fault_j, b.energy.fault_j);

  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.counters.work_cycles, b.counters.work_cycles);
  EXPECT_EQ(a.counters.mem_stall_cycles, b.counters.mem_stall_cycles);
  EXPECT_EQ(a.counters.cpu_busy_seconds, b.counters.cpu_busy_seconds);

  EXPECT_EQ(a.messages.messages, b.messages.messages);
  EXPECT_EQ(a.messages.bytes, b.messages.bytes);

  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.recoveries, b.faults.recoveries);
  EXPECT_EQ(a.faults.checkpoints, b.faults.checkpoints);
  EXPECT_EQ(a.faults.spares_used, b.faults.spares_used);
  EXPECT_EQ(a.faults.messages_dropped, b.faults.messages_dropped);
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
  EXPECT_EQ(a.faults.throttled_iterations, b.faults.throttled_iterations);
  EXPECT_EQ(a.faults.straggler_s, b.faults.straggler_s);
  EXPECT_EQ(a.faults.checkpoint_s, b.faults.checkpoint_s);
  EXPECT_EQ(a.faults.rework_s, b.faults.rework_s);
  EXPECT_EQ(a.faults.downtime_s, b.faults.downtime_s);
}

/// A plan exercising every fault class at once.
fault::Plan busy_plan(double horizon_s) {
  fault::Plan plan;
  plan.seed = 99;
  plan.crashes.push_back(fault::NodeCrash{1, horizon_s * 0.4});
  plan.stragglers.push_back(fault::Straggler{0, 0.0, horizon_s, 2.0});
  plan.throttles.push_back(
      fault::Throttle{0, horizon_s * 0.2, horizon_s, 1.5e9});
  plan.net_degradations.push_back(
      fault::NetworkDegradation{0.0, horizon_s * 4.0, 2.0, 0.5, 0.2});
  plan.jitter_storms.push_back(fault::JitterStorm{0.0, horizon_s, 0.3});
  plan.recovery.barrier_timeout_s = 0.5;
  plan.recovery.checkpoint_interval_s = horizon_s * 0.2;
  plan.recovery.checkpoint_write_s = 0.05;
  plan.recovery.restart_s = 0.5;
  return plan;
}

Measurement run(const SimOptions& opt) {
  return simulate(hw::xeon_cluster(),
                  workload::program_by_name("SP", workload::InputClass::kS),
                  {2, 4, q::Hertz{1.8e9}}, opt);
}

TEST(FaultDeterminism, SameSeedAndPlanReplayBitIdentically) {
  SimOptions bare;
  bare.chunks_per_iteration = 6;
  const double horizon = run(bare).time_s.value();

  const fault::Plan plan = busy_plan(horizon);
  SimOptions opt = bare;
  opt.faults = &plan;

  const Measurement a = run(opt);
  const Measurement b = run(opt);
  // The plan must actually have fired for this test to mean anything.
  ASSERT_GT(a.faults.crashes + a.faults.messages_dropped +
                a.faults.throttled_iterations,
            0);
  expect_identical(a, b);
}

TEST(FaultDeterminism, ObservabilitySinksDoNotPerturbDegradedRuns) {
  SimOptions bare;
  bare.chunks_per_iteration = 6;
  const double horizon = run(bare).time_s.value();

  const fault::Plan plan = busy_plan(horizon);
  SimOptions opt = bare;
  opt.faults = &plan;
  const Measurement plain = run(opt);

  obs::TraceSink sink;
  obs::Registry reg;
  SimOptions observed = opt;
  observed.trace = &sink;
  observed.metrics = &reg;
  const Measurement traced = run(observed);
  EXPECT_FALSE(sink.empty());
  EXPECT_GT(reg.size(), 0u);
  expect_identical(plain, traced);
}

TEST(FaultDeterminism, PlanSeedChangesOnlyThePlanStream) {
  // Different plan seeds re-roll drops/victims but the workload's own
  // jitter stream (SimOptions::seed) is untouched: a drop-free plan with
  // a different seed still replays the fault-free trajectory of timing
  // noise. Checked indirectly: two different plan seeds under a
  // drop-only plan give different drop counts but both complete.
  SimOptions bare;
  bare.chunks_per_iteration = 6;
  const double horizon = run(bare).time_s.value();

  fault::Plan p1;
  p1.seed = 1;
  p1.net_degradations.push_back(
      fault::NetworkDegradation{0.0, horizon * 10.0, 1.0, 1.0, 0.3});
  fault::Plan p2 = p1;
  p2.seed = 2;

  SimOptions o1 = bare;
  o1.faults = &p1;
  SimOptions o2 = bare;
  o2.faults = &p2;
  const Measurement m1 = run(o1);
  const Measurement m2 = run(o2);
  EXPECT_TRUE(m1.completed());
  EXPECT_TRUE(m2.completed());
  EXPECT_GT(m1.faults.messages_dropped, 0);
  EXPECT_GT(m2.faults.messages_dropped, 0);
  EXPECT_NE(m1.faults.messages_dropped, m2.faults.messages_dropped);
}

TEST(FaultDeterminism, EnsembleWarningsNameTheirReplica) {
  // `hepex faults --scenario examples/scenarios/faults.json` runs its
  // replicas in parallel, so their engine warnings interleave in any
  // order; the seed on each line ties it to the replica it explains.
  const cfg::Scenario s = cfg::load_scenario_file(
      std::string(HEPEX_SOURCE_DIR) + "/examples/scenarios/faults.json");
  ASSERT_GT(s.sim.replicas, 1);
  const std::uint64_t base = sim_options_from_scenario(s).seed;
  std::set<std::string> replica_seeds;
  for (int i = 0; i < s.sim.replicas; ++i) {
    replica_seeds.insert(
        std::to_string(replica_seed(base, static_cast<std::size_t>(i))));
  }
  ASSERT_EQ(replica_seeds.size(), static_cast<std::size_t>(s.sim.replicas));

  std::mutex mu;
  std::vector<std::string> warnings;
  const obs::LogLevel old_level = obs::Log::level();
  obs::Log::set_level(obs::LogLevel::kWarn);
  obs::Log::set_sink([&](std::string_view line) {
    const std::lock_guard<std::mutex> lock(mu);
    warnings.emplace_back(line);
  });
  (void)core::run(s, core::Method::kFaults);
  obs::Log::set_sink({});
  obs::Log::set_level(old_level);

  ASSERT_FALSE(warnings.empty());
  std::set<std::string> seen;
  for (const std::string& line : warnings) {
    const std::size_t at = line.find(" seed=");
    ASSERT_NE(at, std::string::npos) << line;
    const std::size_t from = at + 6;
    const std::string seed =
        line.substr(from, line.find(' ', from) - from);
    EXPECT_EQ(replica_seeds.count(seed), 1u) << line;
    seen.insert(seed);
  }
  // Every replica crashes node 1 at 5 s, so every replica warns.
  EXPECT_EQ(seen, replica_seeds);
}

}  // namespace
}  // namespace hepex::trace
