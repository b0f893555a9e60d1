// Zero-perturbation regression: attaching a TraceSink and/or a Registry
// to SimOptions must leave the simulated Measurement bit-identical to a
// bare run with the same seed. The observability hooks only *observe* —
// they never schedule events, consume randomness or read host time — and
// this test is what keeps that property from regressing.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "hw/presets.hpp"
#include "obs/registry.hpp"
#include "obs/span_agg.hpp"
#include "obs/trace_sink.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

namespace hepex::trace {
namespace {

/// Bit-identity, not tolerance: EXPECT_EQ on doubles throughout.
void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.t_cpu_s, b.t_cpu_s);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.mem_busy_s, b.mem_busy_s);
  EXPECT_EQ(a.net_busy_s, b.net_busy_s);
  EXPECT_EQ(a.avg_frequency_hz, b.avg_frequency_hz);

  EXPECT_EQ(a.energy.cpu_active_j, b.energy.cpu_active_j);
  EXPECT_EQ(a.energy.cpu_stall_j, b.energy.cpu_stall_j);
  EXPECT_EQ(a.energy.mem_j, b.energy.mem_j);
  EXPECT_EQ(a.energy.net_j, b.energy.net_j);
  EXPECT_EQ(a.energy.idle_j, b.energy.idle_j);

  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.counters.work_cycles, b.counters.work_cycles);
  EXPECT_EQ(a.counters.nonmem_stall_cycles, b.counters.nonmem_stall_cycles);
  EXPECT_EQ(a.counters.mem_stall_cycles, b.counters.mem_stall_cycles);
  EXPECT_EQ(a.counters.comm_software_cycles, b.counters.comm_software_cycles);
  EXPECT_EQ(a.counters.cpu_busy_seconds, b.counters.cpu_busy_seconds);

  EXPECT_EQ(a.messages.messages, b.messages.messages);
  EXPECT_EQ(a.messages.bytes, b.messages.bytes);
  EXPECT_EQ(a.messages.per_msg_bytes.count(), b.messages.per_msg_bytes.count());
  EXPECT_EQ(a.messages.per_msg_bytes.sum(), b.messages.per_msg_bytes.sum());

  EXPECT_EQ(a.slack_fraction.count(), b.slack_fraction.count());
  EXPECT_EQ(a.slack_fraction.mean(), b.slack_fraction.mean());
  EXPECT_EQ(a.slack_fraction.stddev(), b.slack_fraction.stddev());
  EXPECT_EQ(a.iteration_s.count(), b.iteration_s.count());
  EXPECT_EQ(a.iteration_s.mean(), b.iteration_s.mean());
  EXPECT_EQ(a.iteration_s.min(), b.iteration_s.min());
  EXPECT_EQ(a.iteration_s.max(), b.iteration_s.max());
  EXPECT_EQ(a.drain_s.count(), b.drain_s.count());
  EXPECT_EQ(a.drain_s.sum(), b.drain_s.sum());

  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].compute_s, b.per_node[i].compute_s);
    EXPECT_EQ(a.per_node[i].stall_s, b.per_node[i].stall_s);
    EXPECT_EQ(a.per_node[i].comm_s, b.per_node[i].comm_s);
    EXPECT_EQ(a.per_node[i].barrier_s, b.per_node[i].barrier_s);
    EXPECT_EQ(a.per_node[i].mem_busy_s, b.per_node[i].mem_busy_s);
    EXPECT_EQ(a.per_node[i].cpu_active_j, b.per_node[i].cpu_active_j);
    EXPECT_EQ(a.per_node[i].cpu_stall_j, b.per_node[i].cpu_stall_j);
    EXPECT_EQ(a.per_node[i].mem_j, b.per_node[i].mem_j);
    EXPECT_EQ(a.per_node[i].idle_j, b.per_node[i].idle_j);
  }
}

struct Scenario {
  const char* program;
  hw::ClusterConfig config;
};

/// Prints the scenario by value; without it gtest dumps the struct's
/// bytes, program pointer included, into the test's listed name.
void PrintTo(const Scenario& s, std::ostream* os) {
  *os << s.program << " n=" << s.config.nodes << " c=" << s.config.cores
      << " f=" << s.config.f_hz.value() << "Hz";
}

class DeterminismTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(DeterminismTest, TracingDoesNotPerturbTheRun) {
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name(GetParam().program, workload::InputClass::kS);
  SimOptions bare;
  bare.chunks_per_iteration = 6;

  const Measurement plain = simulate(machine, program, GetParam().config, bare);

  // Trace sink only.
  {
    obs::TraceSink sink;
    SimOptions opt = bare;
    opt.trace = &sink;
    const Measurement traced =
        simulate(machine, program, GetParam().config, opt);
    EXPECT_FALSE(sink.empty());
    expect_identical(plain, traced);
  }

  // Registry only.
  {
    obs::Registry reg;
    SimOptions opt = bare;
    opt.metrics = &reg;
    const Measurement metered =
        simulate(machine, program, GetParam().config, opt);
    EXPECT_GT(reg.size(), 0u);
    expect_identical(plain, metered);
  }

  // Span aggregator only.
  {
    obs::SpanAggregator agg;
    SimOptions opt = bare;
    opt.spans = &agg;
    const Measurement spanned =
        simulate(machine, program, GetParam().config, opt);
    EXPECT_FALSE(agg.empty());
    expect_identical(plain, spanned);
  }

  // All three at once (the --report configuration: metrics + spans).
  {
    obs::TraceSink sink;
    obs::Registry reg;
    obs::SpanAggregator agg;
    SimOptions opt = bare;
    opt.trace = &sink;
    opt.metrics = &reg;
    opt.spans = &agg;
    const Measurement both =
        simulate(machine, program, GetParam().config, opt);
    expect_identical(plain, both);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeterminismTest,
    ::testing::Values(Scenario{"SP", {1, 4, q::Hertz{1.8e9}}},
                      Scenario{"SP", {4, 4, q::Hertz{1.5e9}}},
                      Scenario{"LU", {2, 8, q::Hertz{1.2e9}}}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      std::ostringstream name;
      name << info.param.program << "_n" << info.param.config.nodes << "_c"
           << info.param.config.cores;
      return name.str();
    });

TEST(Determinism, RepeatedTracedRunsEmitIdenticalTraces) {
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{2, 2, q::Hertz{1.5e9}};

  const auto traced_json = [&] {
    obs::TraceSink sink;
    SimOptions opt;
    opt.chunks_per_iteration = 6;
    opt.trace = &sink;
    simulate(machine, program, cfg, opt);
    std::ostringstream os;
    sink.write_json(os);
    return os.str();
  };
  EXPECT_EQ(traced_json(), traced_json());
}

TEST(Determinism, RepeatedRunsEmitIdenticalSpanSnapshots) {
  // The aggregator's snapshot (category order, counts, buckets) is a
  // pure function of the seed, so repeated runs pin byte-for-byte.
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{2, 2, q::Hertz{1.5e9}};

  const auto spans_json = [&] {
    obs::SpanAggregator agg;
    SimOptions opt;
    opt.chunks_per_iteration = 6;
    opt.spans = &agg;
    simulate(machine, program, cfg, opt);
    return agg.to_json();
  };
  EXPECT_EQ(spans_json(), spans_json());
}

TEST(Determinism, DvfsPolicyRunsAreAlsoUnperturbed) {
  // DVFS transitions add instants + counter samples to the trace; the
  // governor's decisions must still be identical with a sink attached.
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{4, 4, q::Hertz{1.8e9}};

  SimOptions bare;
  bare.chunks_per_iteration = 6;
  bare.dvfs_policy = std::make_shared<hw::SlackStepPolicy>();
  const Measurement plain = simulate(machine, program, cfg, bare);

  obs::TraceSink sink;
  obs::Registry reg;
  SimOptions opt = bare;
  opt.trace = &sink;
  opt.metrics = &reg;
  const Measurement traced = simulate(machine, program, cfg, opt);
  expect_identical(plain, traced);
}

}  // namespace
}  // namespace hepex::trace
