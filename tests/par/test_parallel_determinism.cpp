// The tentpole contract of hepex::par: parallel execution is an
// implementation detail — every parallel sweep, ensemble and validation
// run returns results BIT-IDENTICAL to the serial computation, at any
// job count, with or without observability attached. These tests memcmp
// (or field-wise bit-compare, where struct padding makes raw memcmp
// unsound) the actual result vectors.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/validation.hpp"
#include "fault/plan.hpp"
#include "hw/presets.hpp"
#include "model/characterization.hpp"
#include "model/predictor.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "pareto/frontier.hpp"
#include "trace/ensemble.hpp"
#include "workload/programs.hpp"

using namespace hepex;

namespace {

/// memcmp over a ConfigPoint vector is exact: the struct is two ints
/// followed by four doubles with no padding.
static_assert(sizeof(pareto::ConfigPoint) ==
                  2 * sizeof(int) + 4 * sizeof(double),
              "ConfigPoint gained padding; update the comparisons here");

::testing::AssertionResult bits_equal(
    const std::vector<pareto::ConfigPoint>& a,
    const std::vector<pareto::ConfigPoint>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(),
                  a.size() * sizeof(pareto::ConfigPoint)) != 0) {
    return ::testing::AssertionFailure() << "payload bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// Bitwise double equality (distinguishes -0.0/0.0 and NaN payloads —
/// exactly what "bit-identical" promises).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool same_bits(q::Seconds a, q::Seconds b) {
  return same_bits(a.value(), b.value());
}
bool same_bits(q::Joules a, q::Joules b) {
  return same_bits(a.value(), b.value());
}

::testing::AssertionResult summaries_equal(const util::Summary& a,
                                           const util::Summary& b) {
  if (a.count() != b.count() || !same_bits(a.mean(), b.mean()) ||
      !same_bits(a.sum(), b.sum()) || !same_bits(a.min(), b.min()) ||
      !same_bits(a.max(), b.max()) ||
      !same_bits(a.variance(), b.variance())) {
    return ::testing::AssertionFailure() << "summary bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// Field-wise bitwise Measurement comparison. FaultStats has padding
/// after its seven ints, so raw memcmp over Measurement is unsound;
/// compare every observable field instead.
::testing::AssertionResult measurements_equal(const trace::Measurement& a,
                                              const trace::Measurement& b) {
  if (a.config != b.config) {
    return ::testing::AssertionFailure() << "config differs";
  }
  if (!same_bits(a.time_s, b.time_s) ||
      !same_bits(a.t_cpu_s, b.t_cpu_s) ||
      !same_bits(a.t_fault_s, b.t_fault_s) ||
      !same_bits(a.mem_busy_s, b.mem_busy_s) ||
      !same_bits(a.net_busy_s, b.net_busy_s) ||
      !same_bits(a.cpu_utilization, b.cpu_utilization) ||
      !same_bits(a.avg_frequency_hz.value(), b.avg_frequency_hz.value())) {
    return ::testing::AssertionFailure() << "timing bits differ";
  }
  if (!same_bits(a.energy.cpu_active_j, b.energy.cpu_active_j) ||
      !same_bits(a.energy.cpu_stall_j, b.energy.cpu_stall_j) ||
      !same_bits(a.energy.mem_j, b.energy.mem_j) ||
      !same_bits(a.energy.net_j, b.energy.net_j) ||
      !same_bits(a.energy.idle_j, b.energy.idle_j) ||
      !same_bits(a.energy.fault_j, b.energy.fault_j)) {
    return ::testing::AssertionFailure() << "energy bits differ";
  }
  if (!same_bits(a.counters.instructions, b.counters.instructions) ||
      !same_bits(a.counters.work_cycles, b.counters.work_cycles) ||
      !same_bits(a.counters.nonmem_stall_cycles,
                 b.counters.nonmem_stall_cycles) ||
      !same_bits(a.counters.mem_stall_cycles, b.counters.mem_stall_cycles) ||
      !same_bits(a.counters.comm_software_cycles,
                 b.counters.comm_software_cycles) ||
      !same_bits(a.counters.cpu_busy_seconds, b.counters.cpu_busy_seconds)) {
    return ::testing::AssertionFailure() << "counter bits differ";
  }
  if (!same_bits(a.messages.messages, b.messages.messages) ||
      !same_bits(a.messages.bytes.value(), b.messages.bytes.value())) {
    return ::testing::AssertionFailure() << "message bits differ";
  }
  auto sp = summaries_equal(a.messages.per_msg_bytes, b.messages.per_msg_bytes);
  if (!sp) return sp;
  auto ss = summaries_equal(a.slack_fraction, b.slack_fraction);
  if (!ss) return ss;
  auto si = summaries_equal(a.iteration_s, b.iteration_s);
  if (!si) return si;
  auto sd = summaries_equal(a.drain_s, b.drain_s);
  if (!sd) return sd;
  if (a.outcome != b.outcome || a.faults.crashes != b.faults.crashes ||
      a.faults.recoveries != b.faults.recoveries ||
      a.faults.checkpoints != b.faults.checkpoints ||
      a.faults.spares_used != b.faults.spares_used ||
      a.faults.messages_dropped != b.faults.messages_dropped ||
      a.faults.retransmits != b.faults.retransmits ||
      a.faults.throttled_iterations != b.faults.throttled_iterations ||
      !same_bits(a.faults.straggler_s, b.faults.straggler_s) ||
      !same_bits(a.faults.checkpoint_s, b.faults.checkpoint_s) ||
      !same_bits(a.faults.rework_s, b.faults.rework_s) ||
      !same_bits(a.faults.downtime_s, b.faults.downtime_s)) {
    return ::testing::AssertionFailure() << "fault stats differ";
  }
  return ::testing::AssertionSuccess();
}

const model::Characterization& xeon_sp_ch() {
  static const model::Characterization ch = [] {
    model::CharacterizationOptions o;
    o.baseline_class = workload::InputClass::kW;
    return model::characterize(
        hw::xeon_cluster(),
        workload::make_sp(workload::InputClass::kA), o);
  }();
  return ch;
}

std::vector<int> job_counts() {
  std::vector<int> jobs{1, 2};
  if (par::hardware_jobs() > 2) jobs.push_back(par::hardware_jobs());
  jobs.push_back(7);  // deliberately not a divisor of 216
  return jobs;
}

}  // namespace

TEST(ParallelDeterminism, SweepModelSpaceIsBitIdenticalAtAnyJobCount) {
  const auto& ch = xeon_sp_ch();
  const auto target =
      model::target_of(workload::make_sp(workload::InputClass::kA));
  const auto serial = pareto::sweep_model_space(ch, target, 1);
  ASSERT_FALSE(serial.empty());
  for (int jobs : job_counts()) {
    const auto parallel = pareto::sweep_model_space(ch, target, jobs);
    EXPECT_TRUE(bits_equal(serial, parallel)) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, SweepUnaffectedByProfilerAndLogSink) {
  const auto& ch = xeon_sp_ch();
  const auto target =
      model::target_of(workload::make_sp(workload::InputClass::kA));
  const auto serial = pareto::sweep_model_space(ch, target, 1);

  // Worker threads now hit the profiler (model.predict scopes) and the
  // logger concurrently; neither may perturb results or crash.
  obs::Profiler::instance().set_enabled(true);
  std::vector<std::string> lines;
  obs::Log::set_sink([&lines](std::string_view l) {
    lines.emplace_back(l);
  });
  obs::Log::set_level(obs::LogLevel::kDebug);

  const auto parallel = pareto::sweep_model_space(ch, target, 4);

  obs::Log::set_level(obs::LogLevel::kWarn);
  obs::Log::set_sink({});
  obs::Profiler::instance().set_enabled(false);
  obs::Profiler::instance().reset();

  EXPECT_TRUE(bits_equal(serial, parallel));
}

TEST(ParallelDeterminism, PredictManyMatchesSerialPredict) {
  const auto& ch = xeon_sp_ch();
  const auto target =
      model::target_of(workload::make_sp(workload::InputClass::kA));
  const auto cfgs = hw::model_config_space(ch.machine);
  const auto many = model::predict_many(ch, target, cfgs, 3);
  ASSERT_EQ(many.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); i += 17) {
    const auto one = model::predict(ch, target, cfgs[i]);
    EXPECT_TRUE(same_bits(one.time_s, many[i].time_s));
    EXPECT_TRUE(same_bits(one.energy_j, many[i].energy_j));
    EXPECT_TRUE(same_bits(one.ucr, many[i].ucr));
  }
}

TEST(ParallelDeterminism, FaultEnsembleIsBitIdenticalAtAnyJobCount) {
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{4, 4, q::Hertz{1.8e9}};

  fault::Plan plan;
  plan.random_failures.node_mtbf_s = 120.0;
  plan.recovery.checkpoint_interval_s = 5.0;
  trace::SimOptions opt;
  opt.faults = &plan;

  const std::size_t kReplicas = 6;
  const auto serial =
      trace::simulate_ensemble(machine, program, cfg, opt, kReplicas, 1);
  ASSERT_EQ(serial.size(), kReplicas);
  for (int jobs : {2, 4}) {
    const auto parallel =
        trace::simulate_ensemble(machine, program, cfg, opt, kReplicas, jobs);
    ASSERT_EQ(parallel.size(), kReplicas);
    for (std::size_t i = 0; i < kReplicas; ++i) {
      EXPECT_TRUE(measurements_equal(serial[i], parallel[i]))
          << "replica " << i << " jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, EnsembleReplicasDifferFromEachOther) {
  // Sanity check that per-replica seeding actually decorrelates runs —
  // identical replicas would make the determinism test vacuous.
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{2, 4, q::Hertz{1.8e9}};
  trace::SimOptions opt;
  const auto runs = trace::simulate_ensemble(machine, program, cfg, opt, 3, 1);
  EXPECT_FALSE(measurements_equal(runs[0], runs[1]));
  EXPECT_FALSE(measurements_equal(runs[1], runs[2]));
}

TEST(ParallelDeterminism, EnsemblePerReplicaSinksDoNotPerturb) {
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{4, 4, q::Hertz{1.8e9}};
  trace::SimOptions opt;

  const std::size_t kReplicas = 4;
  const auto bare =
      trace::simulate_ensemble(machine, program, cfg, opt, kReplicas, 2);

  // A replica is a plain run with the replica's seed, so its sinks attach
  // there; the instrumented run must match the ensemble's bare replica.
  for (std::size_t i = 0; i < kReplicas; ++i) {
    obs::Registry registry;
    trace::SimOptions o = opt;
    o.seed = trace::replica_seed(opt.seed, i);
    o.metrics = &registry;
    const auto instrumented = trace::simulate(machine, program, cfg, o);
    EXPECT_TRUE(measurements_equal(bare[i], instrumented)) << "replica " << i;
    const auto* c = registry.find_counter("sim.events_processed");
    ASSERT_NE(c, nullptr) << "replica " << i;
    EXPECT_GT(c->value(), 0u);
  }
}

TEST(ParallelDeterminism, SharedSinkEnsembleIsRejected) {
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{2, 4, q::Hertz{1.8e9}};
  obs::Registry registry;
  trace::SimOptions opt;
  opt.metrics = &registry;
  EXPECT_THROW(trace::simulate_ensemble(machine, program, cfg, opt, 2, 2),
               std::invalid_argument);
}

TEST(ParallelDeterminism, ReplicaSeedsAreStableAndDistinct) {
  EXPECT_EQ(trace::replica_seed(42, 0), trace::replica_seed(42, 0));
  EXPECT_NE(trace::replica_seed(42, 0), trace::replica_seed(42, 1));
  EXPECT_NE(trace::replica_seed(42, 0), trace::replica_seed(43, 0));
  // Replica 0 must not alias the base seed itself.
  EXPECT_NE(trace::replica_seed(42, 0), 42u);
}

TEST(ParallelDeterminism, ValidationReportIsBitIdenticalAtAnyJobCount) {
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kW);
  std::vector<hw::ClusterConfig> grid;
  for (int n : {1, 2, 4}) {
    grid.push_back(hw::ClusterConfig{n, 4, q::Hertz{1.8e9}});
  }
  model::CharacterizationOptions options;
  options.baseline_class = workload::InputClass::kS;

  const auto serial = core::validate(machine, program, grid, options, 1);
  for (int jobs : {2, 3}) {
    const auto parallel = core::validate(machine, program, grid, options, jobs);
    ASSERT_EQ(parallel.rows.size(), serial.rows.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
      const auto& a = serial.rows[i];
      const auto& b = parallel.rows[i];
      EXPECT_TRUE(a.config == b.config);
      EXPECT_TRUE(same_bits(a.measured_time_s, b.measured_time_s));
      EXPECT_TRUE(same_bits(a.predicted_time_s, b.predicted_time_s));
      EXPECT_TRUE(same_bits(a.measured_energy_j, b.measured_energy_j));
      EXPECT_TRUE(same_bits(a.predicted_energy_j, b.predicted_energy_j));
      EXPECT_TRUE(same_bits(a.time_error_pct, b.time_error_pct));
      EXPECT_TRUE(same_bits(a.energy_error_pct, b.energy_error_pct));
      EXPECT_TRUE(same_bits(a.measured_ucr, b.measured_ucr));
      EXPECT_TRUE(same_bits(a.predicted_ucr, b.predicted_ucr));
    }
    EXPECT_TRUE(summaries_equal(serial.time_error, parallel.time_error));
    EXPECT_TRUE(summaries_equal(serial.energy_error, parallel.energy_error));
  }
}

namespace {

/// Field-wise bitwise Characterization comparison: every baseline point,
/// the comm probe, the NetPIPE sweep and the power parameters.
::testing::AssertionResult characterizations_equal(
    const model::Characterization& a, const model::Characterization& b) {
  if (a.baseline.size() != b.baseline.size()) {
    return ::testing::AssertionFailure() << "baseline row count differs";
  }
  for (std::size_t c = 0; c < a.baseline.size(); ++c) {
    if (a.baseline[c].size() != b.baseline[c].size()) {
      return ::testing::AssertionFailure() << "row " << c << " size differs";
    }
    for (std::size_t fi = 0; fi < a.baseline[c].size(); ++fi) {
      const model::BaselinePoint& x = a.baseline[c][fi];
      const model::BaselinePoint& y = b.baseline[c][fi];
      if (!same_bits(x.work_cycles, y.work_cycles) ||
          !same_bits(x.nonmem_stalls, y.nonmem_stalls) ||
          !same_bits(x.mem_stalls, y.mem_stalls) ||
          !same_bits(x.utilization, y.utilization) ||
          !same_bits(x.instructions, y.instructions)) {
        return ::testing::AssertionFailure()
               << "baseline bits differ at c=" << c + 1 << " fi=" << fi;
      }
    }
  }
  if (a.comm.n_probe != b.comm.n_probe ||
      !same_bits(a.comm.eta, b.comm.eta) ||
      !same_bits(a.comm.nu.value(), b.comm.nu.value()) ||
      !same_bits(a.comm.size_cv, b.comm.size_cv)) {
    return ::testing::AssertionFailure() << "comm probe bits differ";
  }
  if (a.network.points.size() != b.network.points.size() ||
      !same_bits(a.network.achievable_bps.value(),
                 b.network.achievable_bps.value()) ||
      !same_bits(a.network.base_latency_s, b.network.base_latency_s) ||
      !same_bits(a.msg_software_s_at_fmax, b.msg_software_s_at_fmax)) {
    return ::testing::AssertionFailure() << "network bits differ";
  }
  for (std::size_t i = 0; i < a.network.points.size(); ++i) {
    const auto& x = a.network.points[i];
    const auto& y = b.network.points[i];
    if (!same_bits(x.message_bytes.value(), y.message_bytes.value()) ||
        !same_bits(x.latency_s, y.latency_s) ||
        !same_bits(x.throughput_bps.value(), y.throughput_bps.value())) {
      return ::testing::AssertionFailure() << "NetPIPE point " << i;
    }
  }
  const auto watts_equal = [](const std::vector<q::Watts>& x,
                              const std::vector<q::Watts>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same_bits(x[i].value(), y[i].value())) return false;
    }
    return true;
  };
  if (!watts_equal(a.power.core_active_w, b.power.core_active_w) ||
      !watts_equal(a.power.core_stall_w, b.power.core_stall_w) ||
      !same_bits(a.power.mem_active_w.value(), b.power.mem_active_w.value()) ||
      !same_bits(a.power.net_active_w.value(), b.power.net_active_w.value()) ||
      !same_bits(a.power.sys_idle_w.value(), b.power.sys_idle_w.value())) {
    return ::testing::AssertionFailure() << "power bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// characterize() at default job count `jobs` (restored to 0 after).
model::Characterization characterize_at(const hw::MachineSpec& machine,
                                        const workload::ProgramSpec& program,
                                        const model::CharacterizationOptions& o,
                                        int jobs) {
  par::set_default_jobs(jobs);
  auto ch = model::characterize(machine, program, o);
  par::set_default_jobs(0);
  return ch;
}

}  // namespace

TEST(ParallelDeterminism, CharacterizationIsBitIdenticalAtAnyJobCount) {
  struct Case {
    hw::MachineSpec machine;
    const char* program;
  };
  const Case cases[] = {{hw::xeon_cluster(), "SP"}, {hw::arm_cluster(), "CP"}};
  model::CharacterizationOptions o;
  o.baseline_class = workload::InputClass::kS;
  for (const Case& c : cases) {
    const auto program =
        workload::program_by_name(c.program, workload::InputClass::kW);
    const auto serial = characterize_at(c.machine, program, o, 1);
    ASSERT_EQ(serial.baseline.size(),
              static_cast<std::size_t>(c.machine.node.cores));
    for (int jobs : job_counts()) {
      const auto parallel = characterize_at(c.machine, program, o, jobs);
      EXPECT_TRUE(characterizations_equal(serial, parallel))
          << c.program << " jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, CharacterizationWithSharedRegistryStaysSerial) {
  // A registry shared by every baseline run is a single-consumer sink:
  // the sweep must fall back to the serial loop, so the same runs feed it
  // the same events at --jobs 4 as at --jobs 1 (and TSan sees no race).
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kW);
  const auto events_at = [&](int jobs) {
    obs::Registry registry;
    model::CharacterizationOptions o;
    o.baseline_class = workload::InputClass::kS;
    o.sim.metrics = &registry;
    characterize_at(machine, program, o, jobs);
    const auto* c = registry.find_counter("sim.events_processed");
    return c == nullptr ? std::uint64_t{0} : std::uint64_t{c->value()};
  };
  const std::uint64_t serial = events_at(1);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(events_at(4), serial);
}
