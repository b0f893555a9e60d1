// Tests for trace replay on the path `hepex trace replay` runs: a
// hepex-trace/1 document lowered to a ProgramSpec (workload::lower_trace,
// or workload::load_trace_file for a file) and run by trace::simulate.
// Replaying a generated trace reproduces the analytic simulation
// bit-for-bit, replay is deterministic with and without observability
// sinks, and multi-block traces run end-to-end.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "hw/presets.hpp"
#include "obs/registry.hpp"
#include "obs/trace_sink.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"
#include "workload/trace_format.hpp"

namespace hepex::trace {
namespace {

/// Lower a parsed trace and run it (lower_trace validates the demands,
/// simulate the configuration).
Measurement replay(const hw::MachineSpec& machine,
                   const workload::TraceDoc& doc,
                   const hw::ClusterConfig& config,
                   const SimOptions& options = {}) {
  return simulate(machine, workload::lower_trace(doc), config, options);
}

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.t_cpu_s, b.t_cpu_s);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.mem_busy_s, b.mem_busy_s);
  EXPECT_EQ(a.net_busy_s, b.net_busy_s);
  EXPECT_EQ(a.energy.cpu_active_j, b.energy.cpu_active_j);
  EXPECT_EQ(a.energy.cpu_stall_j, b.energy.cpu_stall_j);
  EXPECT_EQ(a.energy.mem_j, b.energy.mem_j);
  EXPECT_EQ(a.energy.net_j, b.energy.net_j);
  EXPECT_EQ(a.energy.idle_j, b.energy.idle_j);
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.messages.messages, b.messages.messages);
  EXPECT_EQ(a.messages.bytes, b.messages.bytes);
}

TEST(TraceReplay, GeneratedTraceReplaysBitIdenticalToTheAnalyticRun) {
  const auto machine = hw::xeon_cluster();
  const hw::ClusterConfig cfg{2, 4, q::Hertz{1.8e9}};
  for (const char* name : {"SP", "LU", "CP"}) {
    const auto program =
        workload::program_by_name(name, workload::InputClass::kS);
    const workload::TraceDoc doc =
        workload::parse_trace(workload::write_trace(program));
    const Measurement direct = simulate(machine, program, cfg);
    const Measurement replayed = replay(machine, doc, cfg);
    expect_identical(direct, replayed);
  }
}

TEST(TraceReplay, ReplayIsUnperturbedByObservabilitySinks) {
  const auto machine = hw::xeon_cluster();
  const hw::ClusterConfig cfg{2, 2, q::Hertz{1.5e9}};
  const workload::TraceDoc doc = workload::parse_trace(
      workload::write_trace(
          workload::program_by_name("SP", workload::InputClass::kS)));

  const Measurement bare = replay(machine, doc, cfg);

  obs::TraceSink sink;
  obs::Registry reg;
  SimOptions opt;
  opt.trace = &sink;
  opt.metrics = &reg;
  const Measurement observed = replay(machine, doc, cfg, opt);
  EXPECT_FALSE(sink.empty());
  EXPECT_GT(reg.size(), 0u);
  expect_identical(bare, observed);
}

TEST(TraceReplay, RepeatedReplaysAreBitIdentical) {
  const auto machine = hw::arm_cluster();
  const hw::ClusterConfig cfg{4, 2, q::Hertz{1.4e9}};
  const workload::TraceDoc doc = workload::parse_trace(
      workload::write_trace(
          workload::program_by_name("LB", workload::InputClass::kS)));
  expect_identical(replay(machine, doc, cfg),
                   replay(machine, doc, cfg));
}

TEST(TraceReplay, MultiBlockTraceRunsEndToEnd) {
  const std::string text =
      "hepex-trace/1\n"
      "meta name phased\n"
      "meta class S\n"
      "meta pattern halo-3d\n"
      "iterations 4\n"
      "iter 3\n"
      "compute 2e8 inst cpi 1 stall 1 serial 0.005 imbalance 0.03 nodeimb 0\n"
      "memory stream 0.2 B/inst reuse 0 B/inst window 2e6 B wset 4e7 B\n"
      "message 1000 B rounds 2 cv 0.2\n"
      "barrier 10000 cyc 100 cyc/core\n"
      "end\n"
      "iter 1\n"
      "compute 6e8 inst cpi 1 stall 1 serial 0.005 imbalance 0.03 nodeimb 0\n"
      "memory stream 0.6 B/inst reuse 0 B/inst window 2e6 B wset 4e7 B\n"
      "message 5000 B rounds 6 cv 0.2\n"
      "barrier 50000 cyc 500 cyc/core\n"
      "end\n";
  const workload::TraceDoc doc = workload::parse_trace(text);
  const auto machine = hw::xeon_cluster();
  const Measurement m =
      replay(machine, doc, hw::ClusterConfig{2, 2, q::Hertz{1.8e9}});
  EXPECT_GT(m.time_s.value(), 0.0);
  EXPECT_GT(m.energy.total().value(), 0.0);
  EXPECT_GT(m.messages.messages, 0.0);
}

TEST(TraceReplay, ReplayTraceFileMatchesInMemoryReplay) {
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const std::string text = workload::write_trace(program);
  const std::string path =
      ::testing::TempDir() + "/hepex_replay_test.trace";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);

  const auto machine = hw::xeon_cluster();
  const hw::ClusterConfig cfg{1, 4, q::Hertz{1.8e9}};
  expect_identical(
      replay(machine, workload::parse_trace(text), cfg),
      simulate(machine, workload::load_trace_file(path), cfg));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hepex::trace
