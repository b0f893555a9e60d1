// Span byte pins: the RunReport `spans` section and the Chrome trace of
// one small faulted run, compared byte for byte with committed goldens.
//
// The run (tests/trace/golden/span_run_scenario.json plus a slack-step
// DVFS policy, which a scenario cannot name) is class-S SP on 2 xeon
// nodes of 2 cores for 8 iterations with a straggler window, a thermal
// throttle, a lossy network window, one crash recovered by
// checkpoint/restart and a second crash that aborts for want of spares.
// So every span kind, every aggregator category and every trace marker
// the engine emits fires at least once; the tests check that too, so a
// regenerated golden cannot silently lose one.
//
// Regenerate (only when a change to the span or trace bytes is intended
// and documented):
//   HEPEX_REGEN_GOLDEN=1 ./build/tests/test_trace --gtest_filter='SpanGolden.*'

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "cfg/scenario.hpp"
#include "hw/dvfs_policy.hpp"
#include "obs/registry.hpp"
#include "obs/span_agg.hpp"
#include "obs/trace_sink.hpp"
#include "trace/execution_engine.hpp"
#include "trace/run_report.hpp"
#include "trace/scenario.hpp"
#include "util/json.hpp"

#ifndef HEPEX_SOURCE_DIR
#error "HEPEX_SOURCE_DIR must point at the repo root"
#endif

namespace hepex::trace {
namespace {

namespace jn = util::json;

std::string golden_path(const std::string& name) {
  return std::string(HEPEX_SOURCE_DIR) + "/tests/trace/golden/" + name;
}

struct SpanRun {
  std::string spans;  ///< the RunReport spans section, dumped
  std::string trace;  ///< the TraceSink's JSON document
};

SpanRun run_once() {
  const cfg::Scenario s =
      cfg::load_scenario_file(golden_path("span_run_scenario.json"));
  SimOptions opt = sim_options_from_scenario(s);
  opt.dvfs_policy = hw::slack_step_policy();
  obs::Registry metrics;
  obs::SpanAggregator spans;
  obs::TraceSink sink;
  opt.metrics = &metrics;
  opt.spans = &spans;
  opt.trace = &sink;
  const Measurement m = simulate(s.machine, s.program, s.single_config(), opt);
  RunReportOptions ro;
  ro.metrics = &metrics;
  ro.spans = &spans;
  SpanRun out;
  out.spans = jn::dump(build_run_report(s, m, ro).spans);
  std::ostringstream os;
  sink.write_json(os);
  out.trace = os.str();
  return out;
}

void check_against_golden(const std::string& name, const std::string& text) {
  const std::string path = golden_path(name);
  if (std::getenv("HEPEX_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << text;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (run with HEPEX_REGEN_GOLDEN=1 to create)";
  std::ostringstream want;
  want << is.rdbuf();
  EXPECT_EQ(want.str(), text) << "span bytes diverged from " << path;
}

TEST(SpanGolden, RunReportSpansSectionBytes) {
  const SpanRun run = run_once();
  const jn::Value doc = jn::parse(run.spans);
  std::set<std::string> got;
  for (const auto& [name, stats] : doc.members()) got.insert(name);
  const std::set<std::string> want = {
      "compute",       "memory",       "fault",      "barrier", "iteration",
      "mem.service",   "network.stack", "network.wire"};
  EXPECT_EQ(got, want);
  check_against_golden("span_run_spans.json", run.spans);
}

TEST(SpanGolden, ChromeTraceBytes) {
  const SpanRun run = run_once();
  const jn::Value doc = jn::parse(run.trace);
  std::set<std::string> got;
  for (const jn::Value& e : doc.find("traceEvents")->as_array()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") continue;
    std::string name = e.find("name")->as_string();
    if (name.rfind("iter ", 0) == 0) name = "iter N";
    got.insert(ph + " " + name);
  }
  const std::set<std::string> want = {
      "X compute",    "X mem stall",    "X dram service", "X msg stack",
      "X wire",       "X barrier wait", "X iter N",       "X recovery",
      "X checkpoint", "i node crash",   "i abort",        "i thermal throttle",
      "i drop+retx",  "i dvfs",         "C f [GHz]"};
  EXPECT_EQ(got, want);
  check_against_golden("span_run_trace.json", run.trace);
}

}  // namespace
}  // namespace hepex::trace
