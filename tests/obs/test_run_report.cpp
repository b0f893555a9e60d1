// Tests for the RunReport artifact: canonical bytes, round trips, the
// field-level diff and the regression-check gate. Scenario-aware
// construction is covered at the trace layer (test_run_report_build.cpp);
// here the reports are hand-built so the obs layer stays util-only.

#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace hepex {
namespace {

using obs::CheckOptions;
using obs::RunReport;

/// The canonical bytes `save_file` writes.
std::string text_of(const RunReport& r) {
  return util::json::dump(r.to_json_value());
}

/// What `load_file` does with a file's bytes.
RunReport parse_report(const std::string& text,
                       const std::string& source = "report") {
  return RunReport::from_json_value(util::json::parse(text, source), source);
}

/// The attribution category `name`; nullptr when absent.
const RunReport::Category* find_category(const RunReport& r,
                                         const std::string& name) {
  for (const RunReport::Category& c : r.attribution) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// A small but fully-populated report (no host section).
RunReport sample() {
  RunReport r;
  r.command = "simulate";
  r.name = "sample";
  r.scenario_fingerprint = "fnv1a64:00000000deadbeef";
  r.platform_preset = "xeon";
  r.machine = "Intel Xeon E5-2603";
  r.program = "SP";
  r.input_class = "S";
  r.nodes = 2;
  r.cores = 4;
  r.f_ghz = 1.8;
  r.seed = 42;
  r.has_results = true;
  r.time_s = 10.0;
  r.energy_j = 100.0;
  r.ucr = 0.5;
  r.cpu_utilization = 0.75;
  r.iterations = 20;
  r.events_processed = 1000;
  r.events_per_virtual_s = 100.0;
  r.outcome = "completed";
  r.attribution = {
      {"compute", 60.0, 8.0}, {"memory", 10.0, 1.0}, {"network", 5.0, 0.5},
      {"barrier", 0.0, 0.25}, {"fault", 0.0, 0.0},   {"idle", 25.0, 10.0},
  };
  r.per_node = {{0, 4.0, 0.5, 0.25, 0.125, 40.0}, {1, 4.0, 0.5, 0.25, 0.125, 35.0}};
  return r;
}

TEST(RunReport, CanonicalBytesArePinned) {
  // The artifact is consumed by external tooling and committed to the
  // repo (BENCH_perf.json), so its exact shape is a contract: schema
  // first, insertion-ordered sections, shortest round-trip numbers,
  // derived energy total appended, trailing newline.
  RunReport r;
  r.command = "simulate";
  r.scenario_fingerprint = "fnv1a64:0123456789abcdef";
  r.platform_preset = "xeon";
  r.machine = "M";
  r.program = "SP";
  r.input_class = "S";
  r.seed = 7;
  r.has_results = true;
  r.time_s = 1.5;
  r.energy_j = 10.0;
  r.ucr = 0.5;
  r.cpu_utilization = 0.25;
  r.iterations = 2;
  r.events_processed = 100;
  r.events_per_virtual_s = 50.0;
  r.outcome = "completed";
  r.attribution = {{"compute", 7.5, 1.0}, {"idle", 2.5, 1.5}};
  EXPECT_EQ(text_of(r),
            "{\n"
            "  \"schema\": \"hepex-run-report/1\",\n"
            "  \"command\": \"simulate\",\n"
            "  \"provenance\": {\n"
            "    \"scenario_fingerprint\": \"fnv1a64:0123456789abcdef\",\n"
            "    \"platform_preset\": \"xeon\",\n"
            "    \"machine\": \"M\",\n"
            "    \"program\": \"SP\",\n"
            "    \"input_class\": \"S\",\n"
            "    \"seed\": 7\n"
            "  },\n"
            "  \"results\": {\n"
            "    \"time_s\": 1.5,\n"
            "    \"energy_j\": 10,\n"
            "    \"ucr\": 0.5,\n"
            "    \"cpu_utilization\": 0.25,\n"
            "    \"iterations\": 2,\n"
            "    \"events_processed\": 100,\n"
            "    \"events_per_virtual_s\": 50,\n"
            "    \"outcome\": \"completed\"\n"
            "  },\n"
            "  \"attribution\": {\n"
            "    \"energy_j\": {\n"
            "      \"compute\": 7.5,\n"
            "      \"idle\": 2.5,\n"
            "      \"total\": 10\n"
            "    },\n"
            "    \"time_s\": {\n"
            "      \"compute\": 1,\n"
            "      \"idle\": 1.5\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST(RunReport, JsonRoundTripIsBitIdentical) {
  const RunReport r = sample();
  const std::string once = text_of(r);
  const std::string twice = text_of(parse_report(once));
  EXPECT_EQ(once, twice);
}

TEST(RunReport, RoundTripPreservesEveryField) {
  const RunReport a = sample();
  const RunReport b = parse_report(text_of(a));
  EXPECT_EQ(b.command, "simulate");
  EXPECT_EQ(b.name, "sample");
  EXPECT_EQ(b.scenario_fingerprint, a.scenario_fingerprint);
  EXPECT_EQ(b.nodes, 2);
  EXPECT_EQ(b.cores, 4);
  EXPECT_DOUBLE_EQ(b.f_ghz, 1.8);
  EXPECT_EQ(b.seed, 42u);
  EXPECT_TRUE(b.has_results);
  EXPECT_DOUBLE_EQ(b.time_s, 10.0);
  EXPECT_EQ(b.outcome, "completed");
  ASSERT_EQ(b.attribution.size(), 6u);
  EXPECT_EQ(b.attribution[0].name, "compute");
  EXPECT_DOUBLE_EQ(b.attribution[0].energy_j, 60.0);
  EXPECT_DOUBLE_EQ(b.attribution[0].time_s, 8.0);
  ASSERT_EQ(b.per_node.size(), 2u);
  EXPECT_EQ(b.per_node[1].node, 1);
  EXPECT_DOUBLE_EQ(b.per_node[1].energy_j, 35.0);
  EXPECT_FALSE(b.has_host);
  // The derived "total" key is not mistaken for a seventh category.
  EXPECT_DOUBLE_EQ(b.attribution_energy_total(), 100.0);
  EXPECT_EQ(find_category(b, "total"), nullptr);
  ASSERT_NE(find_category(b, "memory"), nullptr);
  EXPECT_DOUBLE_EQ(find_category(b, "memory")->energy_j, 10.0);
}

TEST(RunReport, MovedAndCopiedDocumentsHaveTheSameBytes) {
  // Every section present: the rvalue overload moves the scenario,
  // spans, metrics and summary subtrees, the lvalue one copies them.
  RunReport r = sample();
  r.replicas = 3;
  r.jobs = 2;
  r.scenario = util::json::parse(
      R"({"machine": {"preset": "xeon"}, "program": "SP",
          "sim": {"seed": 42, "nodes": [1, 2]}})");
  r.spans = util::json::parse(
      R"({"compute": {"count": 4, "total_s": 1.5, "max_s": 0.5}})");
  r.metrics = util::json::parse(
      R"({"counters": {"sim.events_processed": 1000},
          "gauges": {"sim.events_per_virtual_s": 100}})");
  r.summary = util::json::parse(
      R"({"frontier_points": 1,
          "frontier": [{"n": 2, "c": 4, "f_ghz": 1.8, "ucr": 0.5}]})");
  r.has_host = true;
  r.host_wall_s = 0.25;
  r.host_events_per_s = 4000.0;
  r.host_profile = {{"engine.run", 1.0, 0.2, 0.2},
                    {"report", 2.0, 0.01, 0.006}};

  const std::string copied = util::json::dump(r.to_json_value());
  EXPECT_EQ(util::json::dump(r.to_json_value()), copied);  // r is intact
  for (const char* key :
       {"\"scenario\"", "\"spans\"", "\"per_node\"", "\"metrics\"",
        "\"summary\"", "\"profile\"", "\"results\"", "\"replicas\""}) {
    EXPECT_NE(copied.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(util::json::dump(std::move(r).to_json_value()), copied);
}

TEST(RunReport, SchemaMismatchThrowsWithSource) {
  try {
    (void)parse_report("{\"schema\": \"hepex-run-report/999\"}",
                       "base.json");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("base.json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("hepex-run-report/999"),
              std::string::npos);
  }
  EXPECT_THROW((void)parse_report("{}"), std::invalid_argument);
  EXPECT_THROW((void)parse_report("not json"), std::invalid_argument);
}

/// Mutable object-member lookup (Value::find is const-only).
util::json::Value& member(util::json::Value& obj, const std::string& key) {
  for (auto& [k, v] : obj.members()) {
    if (k == key) return v;
  }
  throw std::logic_error("test document is missing key " + key);
}

/// Integer fields are range-checked on the double before the cast: a
/// number outside the field's type is rejected with its path.
TEST(RunReport, OutOfRangeIntegersAreRejectedWithTheirPath) {
  const struct {
    const char* key;
    double value;
  } provenance[] = {{"nodes", 1e300}, {"cores", -1e300}, {"replicas", 2.5},
                    {"jobs", 3e9},    {"seed", -1.0},    {"seed", 1e300}};
  for (const auto& c : provenance) {
    util::json::Value doc = util::json::parse(text_of(sample()));
    member(doc, "provenance").set(c.key, util::json::Value(c.value));
    try {
      (void)RunReport::from_json_value(doc, "report");
      ADD_FAILURE() << c.key << " = " << c.value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    std::string("report: provenance.") + c.key +
                    ": expected an integer"),
                std::string::npos)
          << e.what();
    }
  }
  util::json::Value doc = util::json::parse(text_of(sample()));
  member(member(doc, "attribution"), "per_node")
      .as_array()[1]
      .set("node", util::json::Value(1e300));
  try {
    (void)RunReport::from_json_value(doc, "report");
    ADD_FAILURE() << "per_node[1].node = 1e300 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("report: per_node.node: expected "
                                         "an integer"),
              std::string::npos)
        << e.what();
  }
}

TEST(RunReportDiff, IdenticalReportsHaveNoDeltas) {
  EXPECT_TRUE(obs::diff_reports(sample(), sample()).empty());
}

TEST(RunReportDiff, NumericDeltaCarriesRelativeChange) {
  RunReport a = sample();
  RunReport b = sample();
  b.time_s = 12.5;
  const auto deltas = obs::diff_reports(a, b);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].path, "results.time_s");
  EXPECT_TRUE(deltas[0].numeric);
  EXPECT_DOUBLE_EQ(deltas[0].a, 10.0);
  EXPECT_DOUBLE_EQ(deltas[0].b, 12.5);
  EXPECT_DOUBLE_EQ(deltas[0].rel, 2.5 / 12.5);
}

TEST(RunReportDiff, MissingSectionsReportOneSided) {
  RunReport a = sample();
  RunReport b = sample();
  b.has_host = true;
  b.host_wall_s = 0.5;
  b.host_events_per_s = 2000.0;
  const auto deltas = obs::diff_reports(a, b);
  ASSERT_FALSE(deltas.empty());
  EXPECT_EQ(deltas[0].path, "host");
  EXPECT_TRUE(deltas[0].only_b);
}

TEST(RunReportCheck, IdenticalReportsPass) {
  const auto res = obs::check_reports(sample(), sample());
  EXPECT_TRUE(res.pass);
  EXPECT_FALSE(res.items.empty());
  for (const auto& item : res.items) EXPECT_TRUE(item.pass);
}

TEST(RunReportCheck, FingerprintMismatchFailsOutright) {
  RunReport cand = sample();
  cand.scenario_fingerprint = "fnv1a64:ffffffffffffffff";
  const auto res = obs::check_reports(sample(), cand);
  EXPECT_FALSE(res.pass);
  EXPECT_NE(res.note.find("fingerprint"), std::string::npos);
}

TEST(RunReportCheck, VirtualTimeDriftBeyondRtolFails) {
  RunReport cand = sample();
  cand.energy_j *= 1.0 + 1e-6;  // far beyond the 1e-9 default
  const auto res = obs::check_reports(sample(), cand);
  EXPECT_FALSE(res.pass);
  bool found = false;
  for (const auto& item : res.items) {
    if (item.metric == "results.energy_j") {
      found = true;
      EXPECT_FALSE(item.pass);
      EXPECT_FALSE(item.one_sided);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunReportCheck, LibmLevelDriftPasses) {
  RunReport cand = sample();
  cand.energy_j *= 1.0 + 1e-12;  // below rtol: allowed
  EXPECT_TRUE(obs::check_reports(sample(), cand).pass);
}

TEST(RunReportCheck, SlowerHostThroughputFailsOneSided) {
  RunReport base = sample();
  base.has_host = true;
  base.host_wall_s = 1.0;
  base.host_events_per_s = 1000.0;
  RunReport cand = base;

  cand.host_events_per_s = 800.0;  // 20% slower > 15% tolerance
  EXPECT_FALSE(obs::check_reports(base, cand).pass);

  cand.host_events_per_s = 900.0;  // 10% slower: within tolerance
  EXPECT_TRUE(obs::check_reports(base, cand).pass);

  cand.host_events_per_s = 5000.0;  // faster never fails (one-sided)
  EXPECT_TRUE(obs::check_reports(base, cand).pass);

  // check_host=false ignores the host section entirely.
  cand.host_events_per_s = 1.0;
  CheckOptions opts;
  opts.check_host = false;
  EXPECT_TRUE(obs::check_reports(base, cand, opts).pass);
}

TEST(RunReportCheck, MissingCandidateCategoryFails) {
  RunReport cand = sample();
  cand.attribution.pop_back();  // drop "idle"
  const auto res = obs::check_reports(sample(), cand);
  EXPECT_FALSE(res.pass);
}

}  // namespace
}  // namespace hepex
