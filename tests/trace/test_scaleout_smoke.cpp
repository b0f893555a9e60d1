// 1000-node scale-out smoke test. The paper's clusters stop at 8 nodes;
// the event calendar is what lets the engine run three orders of
// magnitude past that. This suite runs a short 1000-node simulation in
// every build flavour — including the ASan/UBSan and TSan trees, where
// the calendar heap, action-pool slot recycling and station rings get
// checked for memory errors — and pins determinism at that scale (two
// identical runs, bit-identical Measurements). That every capture the
// engine schedules fits its inline buffer is checked by the compiler
// (sim/event_fn.hpp), not here.

#include <gtest/gtest.h>

#include "hw/presets.hpp"
#include "obs/registry.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

namespace hepex::trace {
namespace {

/// A 1000-node cluster: the xeon preset with the availability ceiling
/// raised (the model does not care how many nodes the paper owned) and a
/// short workload so the suite stays fast under sanitizers.
hw::MachineSpec big_machine() {
  hw::MachineSpec m = hw::machine_by_name("xeon");
  m.nodes_available = 1000;
  return m;
}

workload::ProgramSpec short_program() {
  auto p = workload::program_by_name("SP", workload::InputClass::kS);
  p.iterations = 2;
  return p;
}

TEST(ScaleoutSmoke, ThousandNodesCompletes) {
  const hw::MachineSpec machine = big_machine();
  const auto program = short_program();
  const hw::ClusterConfig cfg{1000, 1, q::Hertz{1.8e9}};
  SimOptions opt;
  opt.chunks_per_iteration = 2;
  obs::Registry reg;
  opt.metrics = &reg;
  const Measurement m = simulate(machine, program, cfg, opt);
  EXPECT_EQ(m.outcome, RunOutcome::kCompleted);
  EXPECT_GT(m.time_s, q::Seconds{});
  ASSERT_EQ(m.per_node.size(), 1000u);
  // Every node computed something: the calendar did not strand any
  // node's events.
  for (const auto& nu : m.per_node) {
    EXPECT_GT(nu.compute_s, q::Seconds{});
  }
  const auto* events = reg.find_counter("sim.events_processed");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->value(), 1000u * 2u);
}

TEST(ScaleoutSmoke, ThousandNodesDeterministic) {
  const hw::MachineSpec machine = big_machine();
  const auto program = short_program();
  const hw::ClusterConfig cfg{1000, 2, q::Hertz{1.8e9}};
  SimOptions opt;
  opt.chunks_per_iteration = 2;
  const Measurement a = simulate(machine, program, cfg, opt);
  const Measurement b = simulate(machine, program, cfg, opt);
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.messages.messages, b.messages.messages);
  EXPECT_EQ(a.messages.bytes, b.messages.bytes);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].compute_s, b.per_node[i].compute_s);
    EXPECT_EQ(a.per_node[i].barrier_s, b.per_node[i].barrier_s);
  }
}

}  // namespace
}  // namespace hepex::trace
