// Tests for trace::build_run_report: the scenario-aware RunReport
// builder. Pins the paper-facing accounting claim — the six attribution
// energy categories are a regrouping of EnergyBreakdown, so they sum to
// the measured total within 1e-9 relative — plus fingerprint stability
// across save/load and the independence of the fingerprint from sink
// output paths.

#include "trace/run_report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cfg/scenario.hpp"
#include "obs/registry.hpp"
#include "obs/span_agg.hpp"
#include "trace/scenario.hpp"
#include "util/json.hpp"
#include "workload/programs.hpp"

namespace hepex::trace {
namespace {

cfg::Scenario small_scenario() {
  cfg::Scenario s = cfg::default_scenario();
  s.name = "report-build-test";
  s.input = workload::InputClass::kS;
  s.program = workload::program_by_name(s.program_name, s.input);
  s.config = hw::ClusterConfig{4, 4, q::Hertz{1.8e9}};
  s.validate();
  return s;
}

obs::RunReport build(const cfg::Scenario& s, obs::Registry* reg,
                     obs::SpanAggregator* agg) {
  SimOptions opt = sim_options_from_scenario(s);
  opt.metrics = reg;
  opt.spans = agg;
  const Measurement meas =
      simulate(s.machine, s.program, s.single_config(), opt);
  RunReportOptions ro;
  ro.metrics = reg;
  ro.spans = agg;
  return build_run_report(s, meas, ro);
}

TEST(RunReportBuild, AttributionEnergySumsToMeasuredTotal) {
  const cfg::Scenario s = small_scenario();
  obs::Registry reg;
  obs::SpanAggregator agg;
  const obs::RunReport r = build(s, &reg, &agg);

  ASSERT_TRUE(r.has_results);
  ASSERT_EQ(r.attribution.size(), 6u);
  const char* expected[] = {"compute", "memory",  "network",
                            "barrier", "fault", "idle"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(r.attribution[i].name, expected[i]);
  }
  const double sum = r.attribution_energy_total();
  ASSERT_GT(r.energy_j, 0.0);
  EXPECT_LE(std::fabs(sum - r.energy_j) / r.energy_j, 1e-9);
  // Barrier energy is zero by construction: waiting cores draw only the
  // static floor, which the idle category carries.
  EXPECT_EQ(r.attribution[3].energy_j, 0.0);  // barrier
}

TEST(RunReportBuild, PerNodeRowsCoverEveryNode) {
  const cfg::Scenario s = small_scenario();
  obs::Registry reg;
  obs::SpanAggregator agg;
  const obs::RunReport r = build(s, &reg, &agg);

  ASSERT_EQ(r.per_node.size(), 4u);
  double compute_s = 0.0;
  double node_energy_j = 0.0;
  for (const auto& row : r.per_node) {
    compute_s += row.compute_s;
    node_energy_j += row.energy_j;
    EXPECT_GT(row.compute_s, 0.0);
  }
  // Per-node compute seconds are exactly the category's time entry (the
  // builder computes one from the other).
  EXPECT_DOUBLE_EQ(compute_s, r.attribution[0].time_s);
  // Node-attributable energy (cpu + mem + idle) is bounded by the total;
  // the cluster-level wire/fault energy is the remainder.
  EXPECT_LE(node_energy_j, r.energy_j * (1.0 + 1e-9));
  EXPECT_GT(node_energy_j, 0.0);
}

TEST(RunReportBuild, SectionsArePopulatedWhenSinksAttached) {
  const cfg::Scenario s = small_scenario();
  obs::Registry reg;
  obs::SpanAggregator agg;
  const obs::RunReport r = build(s, &reg, &agg);

  EXPECT_TRUE(r.metrics.is_object());
  EXPECT_TRUE(r.spans.is_object());
  EXPECT_GT(r.events_processed, 0.0);
  EXPECT_EQ(r.outcome, "completed");
  EXPECT_EQ(r.nodes, 4);
  EXPECT_EQ(r.cores, 4);
  EXPECT_DOUBLE_EQ(r.f_ghz, 1.8);
  EXPECT_EQ(r.name, "report-build-test");
  // The embedded scenario is the canonical document: re-loading it and
  // re-canonicalizing reproduces the fingerprint (save∘load fixed point).
  ASSERT_TRUE(r.scenario.is_object());
  const cfg::Scenario reloaded =
      cfg::load_scenario(util::json::dump(r.scenario), "embedded");
  RunReportOptions ro;
  const obs::RunReport again = build_run_report(reloaded, ro);
  EXPECT_EQ(again.scenario_fingerprint, r.scenario_fingerprint);
  EXPECT_FALSE(r.scenario_fingerprint.empty());
}

TEST(RunReportBuild, FingerprintIgnoresSinkOutputPaths) {
  // Zero-perturbation: where (or whether) trace/metrics/report files are
  // written never changes results, so output paths are not identity.
  cfg::Scenario a = small_scenario();
  cfg::Scenario b = small_scenario();
  b.obs.trace_path = "/tmp/t.json";
  b.obs.metrics_path = "/tmp/m.json";
  b.obs.report_path = "/tmp/r.json";
  RunReportOptions ro;
  EXPECT_EQ(build_run_report(a, ro).scenario_fingerprint,
            build_run_report(b, ro).scenario_fingerprint);
}

TEST(RunReportBuild, ProvenanceOnlyBuilderHasNoResults) {
  const cfg::Scenario s = small_scenario();
  RunReportOptions ro;
  ro.command = "advise";
  const obs::RunReport r = build_run_report(s, ro);
  EXPECT_EQ(r.command, "advise");
  EXPECT_FALSE(r.has_results);
  EXPECT_TRUE(r.attribution.empty());
  EXPECT_EQ(r.nodes, 4);  // from the scenario's single config
  EXPECT_FALSE(r.scenario_fingerprint.empty());
}

TEST(RunReportBuild, ReportBytesAreDeterministic) {
  // Two independent builds (fresh sinks each) emit identical bytes —
  // the whole artifact minus `host` is a pure function of the scenario,
  // and no host section is requested here.
  const cfg::Scenario s = small_scenario();
  const auto bytes = [&s] {
    obs::Registry reg;
    obs::SpanAggregator agg;
    return util::json::dump(build(s, &reg, &agg).to_json_value());
  };
  EXPECT_EQ(bytes(), bytes());
}

}  // namespace
}  // namespace hepex::trace
