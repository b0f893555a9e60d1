// Malformed-scenario rejection: every load error must identify the
// document (source), the full field path, and what was wrong. These pin
// the exact messages — they are part of the CLI's user interface.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cfg/scenario.hpp"

namespace hepex::cfg {
namespace {

/// Loads `body` (a complete document) as "s.json" and returns the
/// invalid_argument message; fails the test if nothing is thrown.
std::string error_of(const std::string& body) {
  try {
    (void)load_scenario(body, "s.json");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no error for: " << body;
  return "";
}

/// Wraps a fragment in a valid envelope so only the fragment is at fault.
std::string doc(const std::string& fragment) {
  return std::string("{\"schema\": \"hepex-scenario/1\"") +
         (fragment.empty() ? "" : ", " + fragment) + "}";
}

TEST(ScenarioErrors, MalformedJsonReportsLineAndColumn) {
  EXPECT_EQ(error_of("{"), "s.json: line 1, column 2: expected a quoted "
                           "object key");
}

TEST(ScenarioErrors, MissingSchema) {
  EXPECT_EQ(error_of("{}"), "s.json: schema: missing required key");
}

TEST(ScenarioErrors, SchemaVersionMismatch) {
  EXPECT_EQ(error_of("{\"schema\": \"hepex-scenario/9\"}"),
            "s.json: schema: expected \"hepex-scenario/1\", got "
            "\"hepex-scenario/9\"");
}

TEST(ScenarioErrors, UnknownTopLevelKey) {
  EXPECT_EQ(error_of(doc("\"bogus\": 1")), "s.json: bogus: unknown key");
}

TEST(ScenarioErrors, UnknownNestedKeyCarriesFullPath) {
  EXPECT_EQ(error_of(doc("\"platform\": {\"bogus\": 1}")),
            "s.json: platform.bogus: unknown key");
}

TEST(ScenarioErrors, TypeErrorNamesExpectedAndActual) {
  EXPECT_EQ(error_of(doc("\"jobs\": \"four\"")),
            "s.json: jobs: expected a number, got \"four\"");
}

TEST(ScenarioErrors, NonIntegerWhereIntegerRequired) {
  EXPECT_EQ(error_of(doc("\"jobs\": 1.5")),
            "s.json: jobs: expected an integer, got 1.5");
}

TEST(ScenarioErrors, BadFrequencySuffix) {
  EXPECT_EQ(
      error_of(doc("\"config\": {\"n\": 1, \"c\": 1, \"f\": \"fast\"}")),
      "s.json: config.f: expected a frequency, got 'fast'");
}

TEST(ScenarioErrors, BadDurationSuffix) {
  EXPECT_EQ(error_of(doc("\"faults\": {\"node_mtbf\": \"xyz\"}")),
            "s.json: faults.node_mtbf: expected a duration, got 'xyz'");
}

TEST(ScenarioErrors, UnknownPlatformPresetListsRegistry) {
  EXPECT_EQ(error_of(doc("\"platform\": {\"preset\": \"cray\"}")),
            "s.json: platform.preset: unknown machine 'cray' "
            "(use xeon, arm, modern)");
}

TEST(ScenarioErrors, UnknownProgramListsRegistry) {
  EXPECT_EQ(error_of(doc("\"workload\": {\"program\": \"ZZ\"}")),
            "s.json: workload.program: unknown program 'ZZ' "
            "(use LU, SP, BT, CP, LB, MG, FT, CG)");
}

TEST(ScenarioErrors, UnknownInputClass) {
  EXPECT_EQ(error_of(doc("\"workload\": {\"class\": \"Z\"}")),
            "s.json: workload.class: unknown input class 'Z' "
            "(use S, W, A, B or C)");
}

TEST(ScenarioErrors, ArrayElementErrorsCarryTheIndex) {
  EXPECT_EQ(error_of(doc("\"sweep\": {\"nodes\": [1, \"two\"]}")),
            "s.json: sweep.nodes[1]: expected a number, got \"two\"");
}

TEST(ScenarioErrors, MissingRequiredKeyInsideArrayElement) {
  EXPECT_EQ(error_of(doc("\"faults\": {\"crashes\": [{\"node\": 1}]}")),
            "s.json: faults.crashes[0].at: missing required key");
}

TEST(ScenarioErrors, UnknownRecoveryMode) {
  EXPECT_EQ(
      error_of(doc("\"faults\": {\"recovery\": {\"mode\": \"panic\"}}")),
      "s.json: faults.recovery.mode: unknown recovery mode 'panic' "
      "(use abort or restart)");
}

TEST(ScenarioErrors, ValidationErrorsCarryPathsToo) {
  EXPECT_EQ(error_of(doc("\"sim\": {\"replicas\": 0}")),
            "scenario: sim.replicas: must be >= 1");
  const std::string cfg_err = error_of(
      doc("\"config\": {\"n\": 0, \"c\": 1, \"f\": \"1.8GHz\"}"));
  EXPECT_NE(cfg_err.find("scenario: config: "), std::string::npos)
      << cfg_err;
  EXPECT_NE(cfg_err.find("at least one node"), std::string::npos) << cfg_err;
}

/// One malformed value per field kind, each with its full message.
TEST(ScenarioErrors, EachFieldKindRejectsAMalformedValue) {
  struct Case {
    const char* fragment;
    const char* message;
  };
  const Case cases[] = {
      {"\"platform\": {\"node\": {\"cache\": {\"l1_per_core\": "
       "\"32768\"}}}",
       "s.json: platform.node.cache.l1_per_core: expected a size with unit suffix, got \"32768\""},
      {"\"platform\": {\"network\": {\"bandwidth\": \"10\"}}",
       "s.json: platform.network.bandwidth: expected bandwidth with unit suffix, got \"10\""},
      {"\"platform\": {\"node\": {\"memory\": {\"bandwidth\": "
       "\"12e9\"}}}",
       "s.json: platform.node.memory.bandwidth: expected a byte rate with unit suffix, got \"12e9\""},
      {"\"platform\": {\"node\": {\"power\": {\"sys_idle\": \"55\"}}}",
       "s.json: platform.node.power.sys_idle: expected power with unit suffix, got \"55\""},
      {"\"platform\": {\"node\": {\"isa\": {\"family\": \"sparc\"}}}",
       "s.json: platform.node.isa.family: unknown ISA family 'sparc' (use x86_64 or armv7a)"},
      {"\"workload\": {\"comm\": {\"pattern\": \"mesh\"}}", "s.json: workload.comm.pattern: unknown comm pattern 'mesh' (use halo-3d, wavefront, all-to-all or ring)"},
      {"\"obs\": {\"profile\": 1}", "s.json: obs.profile: expected true or false, got 1"},
      {"\"sim\": {\"seed\": -1}", "s.json: sim.seed: expected a non-negative integer seed (< 2^53), got -1"},
      {"\"workload\": {\"grid\": {\"ai\": []}}", "s.json: workload.grid.ai: axis is empty (omit the key instead)"},
      {"\"platform\": {\"node\": {\"dvfs\": {\"frequencies\": "
       "\"2GHz\"}}}",
       "s.json: platform.node.dvfs.frequencies: expected an array of frequencies, got \"2GHz\""},
      {"\"platform\": {\"node\": {\"isa\": {\"bogus\": 1}}}", "s.json: platform.node.isa.bogus: unknown key"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(error_of(doc(c.fragment)), c.message) << c.fragment;
  }
}

}  // namespace
}  // namespace hepex::cfg
