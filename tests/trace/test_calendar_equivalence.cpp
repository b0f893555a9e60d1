// Calendar-equivalence suite: the engine on its current calendar must
// produce bit-identical Measurements to the original global-calendar
// engine.
//
// The golden files under tests/trace/golden/ were generated by the
// single-priority-queue engine (PR 8 HEAD) via HEPEX_REGEN_GOLDEN=1 and
// are the frozen reference: every double of the Measurement — totals,
// counters, summaries, per-node rows, fault stats — is serialized as a
// hexfloat, so a comparison failure is a one-ULP-or-worse behavioural
// change, not a tolerance judgement. Coverage: the five paper programs
// on both paper platforms, plus a fault plan exercising crash +
// checkpoint/restart + straggler + network-degradation paths.
//
// Regenerate (only when a behaviour change is *intended* and documented):
//   HEPEX_REGEN_GOLDEN=1 ./build/tests/test_trace
//     (with --gtest_filter='CalendarEquivalence*')

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/plan.hpp"
#include "hw/presets.hpp"
#include "obs/registry.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

#ifndef HEPEX_SOURCE_DIR
#error "HEPEX_SOURCE_DIR must point at the repo root"
#endif

namespace hepex::trace {
namespace {

void put(std::ostringstream& os, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << key << "=" << buf << "\n";
}
void put(std::ostringstream& os, const char* key, q::Seconds v) {
  put(os, key, v.value());
}
void put(std::ostringstream& os, const char* key, q::Joules v) {
  put(os, key, v.value());
}

void put_summary(std::ostringstream& os, const char* key,
                 const util::Summary& s) {
  std::string k(key);
  os << key << ".count=" << s.count() << "\n";
  put(os, (k + ".mean").c_str(), s.mean());
  put(os, (k + ".stddev").c_str(), s.stddev());
  put(os, (k + ".min").c_str(), s.min());
  put(os, (k + ".max").c_str(), s.max());
  put(os, (k + ".sum").c_str(), s.sum());
}

/// Every observable of a Measurement, hexfloat-exact, in a fixed order.
std::string dump(const Measurement& m) {
  std::ostringstream os;
  put(os, "time_s", m.time_s);
  put(os, "t_cpu_s", m.t_cpu_s);
  put(os, "cpu_utilization", m.cpu_utilization);
  put(os, "mem_busy_s", m.mem_busy_s);
  put(os, "net_busy_s", m.net_busy_s);
  put(os, "avg_frequency_hz", m.avg_frequency_hz.value());
  put(os, "energy.cpu_active_j", m.energy.cpu_active_j);
  put(os, "energy.cpu_stall_j", m.energy.cpu_stall_j);
  put(os, "energy.mem_j", m.energy.mem_j);
  put(os, "energy.net_j", m.energy.net_j);
  put(os, "energy.idle_j", m.energy.idle_j);
  put(os, "energy.fault_j", m.energy.fault_j);
  put(os, "counters.instructions", m.counters.instructions);
  put(os, "counters.work_cycles", m.counters.work_cycles);
  put(os, "counters.nonmem_stall_cycles", m.counters.nonmem_stall_cycles);
  put(os, "counters.mem_stall_cycles", m.counters.mem_stall_cycles);
  put(os, "counters.comm_software_cycles", m.counters.comm_software_cycles);
  put(os, "counters.cpu_busy_seconds", m.counters.cpu_busy_seconds);
  put(os, "messages.messages", m.messages.messages);
  put(os, "messages.bytes", m.messages.bytes.value());
  put_summary(os, "messages.per_msg_bytes", m.messages.per_msg_bytes);
  put_summary(os, "slack_fraction", m.slack_fraction);
  put_summary(os, "iteration_s", m.iteration_s);
  put_summary(os, "drain_s", m.drain_s);
  put(os, "t_fault_s", m.t_fault_s);
  os << "outcome=" << (m.outcome == RunOutcome::kCompleted ? "completed"
                                                           : "aborted")
     << "\n";
  os << "faults.crashes=" << m.faults.crashes << "\n";
  os << "faults.recoveries=" << m.faults.recoveries << "\n";
  os << "faults.checkpoints=" << m.faults.checkpoints << "\n";
  os << "faults.spares_used=" << m.faults.spares_used << "\n";
  os << "faults.messages_dropped=" << m.faults.messages_dropped << "\n";
  os << "faults.retransmits=" << m.faults.retransmits << "\n";
  os << "faults.throttled_iterations=" << m.faults.throttled_iterations
     << "\n";
  put(os, "faults.straggler_s", m.faults.straggler_s);
  put(os, "faults.checkpoint_s", m.faults.checkpoint_s);
  put(os, "faults.rework_s", m.faults.rework_s);
  put(os, "faults.downtime_s", m.faults.downtime_s);
  for (std::size_t i = 0; i < m.per_node.size(); ++i) {
    const NodeUsage& nu = m.per_node[i];
    const std::string p = "node" + std::to_string(i) + ".";
    put(os, (p + "compute_s").c_str(), nu.compute_s.value());
    put(os, (p + "stall_s").c_str(), nu.stall_s.value());
    put(os, (p + "comm_s").c_str(), nu.comm_s.value());
    put(os, (p + "barrier_s").c_str(), nu.barrier_s.value());
    put(os, (p + "mem_busy_s").c_str(), nu.mem_busy_s.value());
    put(os, (p + "cpu_active_j").c_str(), nu.cpu_active_j.value());
    put(os, (p + "cpu_stall_j").c_str(), nu.cpu_stall_j.value());
    put(os, (p + "mem_j").c_str(), nu.mem_j.value());
    put(os, (p + "idle_j").c_str(), nu.idle_j.value());
  }
  return os.str();
}

std::string golden_path(const std::string& name) {
  return std::string(HEPEX_SOURCE_DIR) + "/tests/trace/golden/" + name +
         ".txt";
}

void check_against_golden(const std::string& name, const Measurement& m) {
  const std::string text = dump(m);
  const std::string path = golden_path(name);
  if (std::getenv("HEPEX_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << text;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (run with HEPEX_REGEN_GOLDEN=1 to create)";
  std::ostringstream want;
  want << is.rdbuf();
  EXPECT_EQ(want.str(), text)
      << "engine diverged from the pre-sharding calendar on " << name;
}

/// The five paper programs (§IV) on both paper platforms, class S, at a
/// mid-grid configuration that exercises multi-node contention.
/// The parameters are std::string so that gtest prints them, and the
/// ctest names show them, by value rather than as pointers.
class CalendarEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(CalendarEquivalence, BitIdenticalToGlobalCalendar) {
  const auto [machine_name, program_name] = GetParam();
  const hw::MachineSpec machine = hw::machine_by_name(machine_name);
  const auto program =
      workload::program_by_name(program_name, workload::InputClass::kS);
  const hw::ClusterConfig cfg{4, machine.node.cores,
                              machine.node.dvfs.frequencies_hz.back()};
  const Measurement m = simulate(machine, program, cfg, {});
  check_against_golden(machine_name + "_" + program_name, m);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, CalendarEquivalence,
    ::testing::Combine(::testing::Values(std::string("xeon"),
                                         std::string("arm")),
                       ::testing::Values(std::string("LU"), std::string("SP"),
                                         std::string("BT"), std::string("CP"),
                                         std::string("LB"))),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

/// One degraded-mode run covering crash detection, checkpoint/restart,
/// a straggler window and network drop + retransmission — the event
/// sources whose calendar interleavings are most at risk from a
/// calendar rearchitecture.
TEST(CalendarEquivalenceFault, DegradedRunBitIdentical) {
  const hw::MachineSpec machine = hw::machine_by_name("xeon");
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{4, machine.node.cores, q::Hertz{1.8e9}};
  const Measurement clean = simulate(machine, program, cfg, {});

  fault::Plan plan;
  plan.crashes.push_back(fault::NodeCrash{1, clean.time_s.value() * 0.4});
  plan.recovery.mode = fault::RecoveryMode::kCheckpointRestart;
  plan.recovery.barrier_timeout_s = clean.time_s.value() * 0.2;
  plan.recovery.checkpoint_interval_s = clean.time_s.value() * 0.3;
  plan.recovery.checkpoint_write_s = clean.time_s.value() * 0.01;
  plan.recovery.restart_s = clean.time_s.value() * 0.1;
  plan.recovery.spare_nodes = 2;
  plan.stragglers.push_back(fault::Straggler{
      2, clean.time_s.value() * 0.1, clean.time_s.value() * 0.3, 1.8});
  plan.net_degradations.push_back(fault::NetworkDegradation{
      clean.time_s.value() * 0.2, clean.time_s.value() * 0.6,
      /*latency_multiplier=*/2.0, /*bandwidth_multiplier=*/0.5,
      /*drop_probability=*/0.2});
  SimOptions opt;
  opt.faults = &plan;
  const Measurement m = simulate(machine, program, cfg, opt);
  EXPECT_GT(m.faults.crashes, 0);
  check_against_golden("xeon_SP_faults", m);
}

/// A recovery that restarts the hung iteration at once (restart_s 0, no
/// rework in the first iteration) while compute chunks of the abandoned
/// attempt are still pending: the barrier timeout is shorter than a
/// chunk. The restarted threads re-schedule their compute ends, which
/// supersedes those pending keys. The golden was generated by the engine
/// whose compute ends were closures (they fired and returned on the
/// epoch check), so it pins that supersession changes no bit.
TEST(CalendarEquivalenceFault, ImmediateRestartSupersedesPendingChunks) {
  const hw::MachineSpec machine = hw::machine_by_name("xeon");
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{4, machine.node.cores, q::Hertz{1.8e9}};
  SimOptions opt;
  const Measurement clean = simulate(machine, program, cfg, opt);
  const double chunk_s = clean.iteration_s.min() / opt.chunks_per_iteration;

  fault::Plan plan;
  plan.crashes.push_back(fault::NodeCrash{2, 1.3 * chunk_s});
  plan.recovery.mode = fault::RecoveryMode::kCheckpointRestart;
  plan.recovery.barrier_timeout_s = 0.4 * chunk_s;
  plan.recovery.checkpoint_interval_s = 0.0;
  plan.recovery.restart_s = 0.0;
  plan.recovery.spare_nodes = 1;
  opt.faults = &plan;
  obs::Registry reg;
  opt.metrics = &reg;
  const Measurement m = simulate(machine, program, cfg, opt);
  check_against_golden("xeon_SP_restart0", m);
  EXPECT_EQ(m.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(m.faults.recoveries, 1);
  EXPECT_EQ(m.faults.downtime_s, q::Seconds{});
  const obs::Counter* superseded = reg.find_counter("sim.calendar.superseded");
  ASSERT_NE(superseded, nullptr);
  EXPECT_GT(superseded->value(), 0u);
}

}  // namespace
}  // namespace hepex::trace
