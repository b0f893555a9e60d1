// Byte pins of the canonical scenario writer. An every-field scenario
// (every key of every spec struct set to an awkward double) and the
// shipped examples/scenarios documents are saved and compared with
// goldens under tests/cfg/golden/; any change to a key name, to the
// emission order, to the diff-against-base rule or to number formatting
// shows up here as a byte difference.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cfg/scenario.hpp"
#include "fault/plan.hpp"
#include "hw/presets.hpp"
#include "workload/programs.hpp"

namespace hepex::cfg {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(HEPEX_SOURCE_DIR) + "/tests/cfg/golden/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Compares `actual` with the golden `name`. On a mismatch the actual
/// bytes are written next to the test's temp dir for inspection.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string expected = read_file(golden_path(name));
  if (expected == actual) return;
  const std::string out = ::testing::TempDir() + "/" + name;
  std::ofstream(out, std::ios::binary) << actual;
  ADD_FAILURE() << "canonical bytes differ from tests/cfg/golden/" << name
                << " (actual written to " << out << ")";
}

/// Every machine key set to a value no preset uses.
hw::MachineSpec every_field_machine() {
  hw::MachineSpec m;
  m.name = "every-field";
  m.nodes_available = 12;
  m.model_node_counts = {1, 3, 12};
  m.node.cores = 6;
  m.node.isa.family = hw::IsaFamily::kArmV7A;
  m.node.isa.name = "probe-core";
  m.node.isa.work_cpi = 1.0 / 3.0;
  m.node.isa.pipeline_stall_per_work_cycle = 0.1 + 0.2;
  m.node.isa.memory_overlap = 2.0 / 3.0;
  m.node.isa.memory_level_parallelism = 2.718281828459045;
  m.node.isa.message_software_cycles = 12345.678901234567;
  m.node.dvfs.frequencies_hz = {q::Hertz{1e9 / 3.0}, q::Hertz{1e9 / 0.7},
                                q::Hertz{2.2e9 + 0.1}};
  m.node.dvfs.v_min = 0.7 + 0.1;
  m.node.dvfs.v_max = 1.1 * 1.1;
  m.node.cache.l1_per_core_bytes = 32768.5;
  m.node.cache.l2_shared_bytes = 1048576.0 * 1.1;
  m.node.cache.l3_shared_bytes = 0.3e6 * 3.0;
  m.node.cache.cold_miss_fraction = 0.1 * 0.3;
  m.node.cache.knee = 10.0 / 7.0;
  m.node.memory.bandwidth_bytes_per_s = q::BytesPerSec{12.3e9 / 3.0};
  m.node.memory.latency_s = q::Seconds{1e-7 / 3.0};
  m.node.memory.capacity_bytes = q::Bytes{8e9 * 1.1};
  m.node.memory.line_bytes = q::Bytes{64.25};
  m.node.power.core.active_coeff = 3e-9 / 7.0;
  m.node.power.core.stall_fraction = 0.45 + 1e-16 * 3.0;
  m.node.power.mem_active_w = q::Watts{8.1 / 3.0};
  m.node.power.net_active_w = q::Watts{2.9 * 1.1};
  m.node.power.sys_idle_w = q::Watts{55.0 / 3.0};
  m.node.power.meter_offset_sigma_w = q::Watts{0.1 + 0.2};
  m.network.link_bits_per_s = q::BitsPerSec{1e9 / 3.0};
  m.network.switch_latency_s = q::Seconds{1e-5 / 3.0};
  m.network.header_bytes_per_frame = q::Bytes{78.5};
  m.network.payload_bytes_per_frame = q::Bytes{1448.0 / 1.1};
  return m;
}

/// Every fault list, every element key and every recovery key.
fault::Plan every_field_plan(double f_cap_hz) {
  fault::Plan p;
  p.seed = 123456789;
  p.random_failures.node_mtbf_s = 3600.5 / 3.0;
  p.crashes.push_back({2, 5.5 / 3.0});
  p.stragglers.push_back({1, 0.1, 0.2 * 3.0, 1.75 + 1.0 / 3.0});
  p.throttles.push_back({0, 0.3, 0.7 / 3.0, f_cap_hz});
  fault::NetworkDegradation d;
  d.start_s = 0.25;
  d.duration_s = 1.0 / 3.0;
  d.latency_mult = 1.5 + 1e-15;
  d.bandwidth_mult = 0.5 / 3.0;
  d.drop_prob = 0.01 * 3.0;
  p.net_degradations.push_back(d);
  fault::NetworkDegradation plain;  // optional keys left at their defaults
  plain.start_s = 2.0 / 3.0;
  plain.duration_s = 0.1 * 3.0;
  p.net_degradations.push_back(plain);
  p.jitter_storms.push_back({0.5, 2.0 / 3.0, 0.2 + 0.1});
  p.recovery.mode = fault::RecoveryMode::kAbort;
  p.recovery.barrier_timeout_s = 30.0 / 7.0;
  p.recovery.checkpoint_interval_s = 60.0 / 7.0;
  p.recovery.checkpoint_write_s = 1.0 / 7.0;
  p.recovery.restart_s = 5.0 / 7.0;
  p.recovery.spare_nodes = 2;
  p.retransmit_timeout_s = 1e-3 / 3.0;
  p.max_retransmits = 9;
  return p;
}

/// Case 1: an inline (preset-less) platform and a registry program with
/// every program key overridden, plus sweep, config, faults, sim, obs
/// and jobs.
Scenario every_field_scenario() {
  Scenario s;
  s.name = "every-field probe";
  s.platform_preset.clear();
  s.machine = every_field_machine();
  s.program_name = "CP";
  s.input = workload::InputClass::kB;
  s.program = workload::program_by_name("CP", s.input);
  workload::ProgramSpec& p = s.program;
  p.name = "probe";
  p.suite = "probe-suite";
  p.language = "C";
  p.domain = "testing";
  p.iterations = 61;
  p.compute.instructions_per_iter = 1e9 / 3.0;
  p.compute.cpi_factor = 1.1 * 1.1;
  p.compute.stall_factor = 0.7 + 0.1;
  p.compute.bytes_per_instruction = 0.1 + 0.2;
  p.compute.reuse_bytes_per_instruction = 2.0 / 3.0;
  p.compute.reuse_window_bytes = 2.5e6 / 3.0;
  p.compute.working_set_bytes = 32e6 / 7.0;
  p.compute.serial_fraction = 1.0 / 3.0;
  p.compute.imbalance = 0.03 * 3.0;
  p.compute.node_imbalance = 0.01 / 3.0;
  p.comm.pattern = workload::CommPattern::kWavefront;
  p.comm.base_bytes = 4096.0 / 3.0;
  p.comm.rounds = 5;
  p.comm.size_cv = 0.2 / 3.0;
  p.sync.base_cycles = 20e3 / 3.0;
  p.sync.cycles_per_total_core = 300.0 / 7.0;
  const auto& f = s.machine.node.dvfs.frequencies_hz;
  s.sweep.nodes = {1, 3};
  s.sweep.cores = {1, 6};
  s.sweep.frequencies = {f[0], f[2]};
  s.config = hw::ClusterConfig{3, 6, f[1]};
  s.faults = every_field_plan(f[0].value());
  s.sim.chunks_per_iteration = 9;
  s.sim.jitter_cv = 0.03 * 3.0;
  s.sim.seed = 9007199254740991ull;  // 2^53 - 1
  s.sim.replicas = 3;
  s.obs.log_level = "debug";
  s.obs.trace_path = "out/trace.json";
  s.obs.metrics_path = "out/metrics.json";
  s.obs.report_path = "out/report.json";
  s.obs.profile = true;
  s.jobs = 3;
  s.validate();
  return s;
}

/// Case 2: a preset platform with every machine key overridden, and a
/// synthetic grid with every axis and a seed.
Scenario every_field_grid_scenario() {
  Scenario s;
  s.name = "every-field grid probe";
  s.platform_preset = "arm";
  s.machine = every_field_machine();
  s.machine.node.isa.family = hw::IsaFamily::kX86_64;  // arm's is armv7a
  s.program_name.clear();
  s.input = workload::InputClass::kS;
  workload::SyntheticGrid g;
  g.arithmetic_intensity = {30.0, 60.5};
  g.bytes_per_instruction = {0.1 + 0.2};
  g.message_intensity = {1e3 / 3.0};
  g.imbalance = {0.03};
  g.serial_fraction = {0.005, 0.01 / 3.0};
  g.seed = 7;
  s.workload_grid = g;
  s.program = workload::make_synthetic(g.expand().front(), s.input);
  s.validate();
  return s;
}

void expect_fixed_point(const std::string& saved) {
  const std::string again = save_scenario(load_scenario(saved));
  EXPECT_EQ(again, save_scenario(load_scenario(again)));
  EXPECT_EQ(saved, again);
}

TEST(ScenarioCanonical, EveryFieldSaveIsPinned) {
  const std::string saved = save_scenario(every_field_scenario());
  expect_golden("every_field.json", saved);
  expect_fixed_point(saved);
}

TEST(ScenarioCanonical, EveryFieldGridSaveIsPinned) {
  const std::string saved = save_scenario(every_field_grid_scenario());
  expect_golden("every_field_grid.json", saved);
  expect_fixed_point(saved);
}

/// The canonical form of each shipped scenario, as `hepex scenario print
/// --scenario examples/scenarios/<name>.json` writes it.
TEST(ScenarioCanonical, ShippedScenarioPrintsArePinned) {
  for (const char* name : {"arm", "faults", "perf_smoke", "scale_1k",
                           "scale_64", "synthetic_grid", "xeon"}) {
    SCOPED_TRACE(name);
    const std::string file = std::string(name) + ".json";
    const std::string saved = save_scenario(load_scenario_file(
        std::string(HEPEX_SOURCE_DIR) + "/examples/scenarios/" + file));
    expect_golden("print_" + file, saved);
    expect_fixed_point(saved);
  }
}

}  // namespace
}  // namespace hepex::cfg
