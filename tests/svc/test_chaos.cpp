// ChaosPlan — seeded, declarative self-abuse. Plans are plain data with
// the same contract as every other hepex artifact: schema-tagged,
// unknown keys rejected, field-pinned errors, byte-stable round-trips.

#include "svc/chaos.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace hepex::svc {
namespace {

std::string expect_invalid(const std::string& text) {
  try {
    (void)load_chaos_plan(text, "chaos");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "plan accepted: " << text;
  return "";
}

TEST(Chaos, DefaultsValidateAndRoundTrip) {
  ChaosPlan plan;
  EXPECT_NO_THROW(plan.validate());
  const std::string text = save_chaos_plan(plan);
  const ChaosPlan back = load_chaos_plan(text);
  EXPECT_EQ(save_chaos_plan(back), text);  // byte-stable fixed point
  EXPECT_EQ(back.seed, 42u);
  EXPECT_DOUBLE_EQ(back.slow_loris_prob, 0.0);
}

TEST(Chaos, FullPlanRoundTripsEveryField) {
  ChaosPlan plan;
  plan.seed = 7;
  plan.slow_loris_prob = 0.05;
  plan.slow_loris_stall_ms = 120;
  plan.disconnect_prob = 0.1;
  plan.malformed_prob = 0.15;
  plan.oversize_prob = 0.2;
  plan.burst_every = 5;
  plan.burst_size = 12;
  const ChaosPlan back = load_chaos_plan(save_chaos_plan(plan));
  EXPECT_EQ(back.seed, 7u);
  EXPECT_DOUBLE_EQ(back.slow_loris_prob, 0.05);
  EXPECT_EQ(back.slow_loris_stall_ms, 120);
  EXPECT_DOUBLE_EQ(back.disconnect_prob, 0.1);
  EXPECT_DOUBLE_EQ(back.malformed_prob, 0.15);
  EXPECT_DOUBLE_EQ(back.oversize_prob, 0.2);
  EXPECT_EQ(back.burst_every, 5);
  EXPECT_EQ(back.burst_size, 12);
}

/// The saved bytes of the shipped smoke plan: a round trip alone would
/// pass a reordered key.
TEST(Chaos, SmokePlanSavesToPinnedBytes) {
  const ChaosPlan plan = load_chaos_plan_file(std::string(HEPEX_SOURCE_DIR) +
                                              "/examples/chaos/smoke.json");
  EXPECT_EQ(save_chaos_plan(plan),
            "{\n"
            "  \"schema\": \"hepex-chaos-plan/1\",\n"
            "  \"seed\": 42,\n"
            "  \"slow_loris_prob\": 0.03,\n"
            "  \"slow_loris_stall_ms\": 80,\n"
            "  \"disconnect_prob\": 0.1,\n"
            "  \"malformed_prob\": 0.15,\n"
            "  \"oversize_prob\": 0.1,\n"
            "  \"burst_every\": 5,\n"
            "  \"burst_size\": 12\n"
            "}\n");
}

TEST(Chaos, SchemaTagIsEnforced) {
  EXPECT_NE(expect_invalid(R"({"seed": 1})").find("schema"),
            std::string::npos);
  EXPECT_NE(
      expect_invalid(R"({"schema": "hepex-chaos-plan/2"})").find("schema"),
      std::string::npos);
}

TEST(Chaos, UnknownKeysAreRejected) {
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "slow_lorris_prob": 0.1})")
                .find("slow_lorris_prob"),
            std::string::npos);
}

TEST(Chaos, OutOfRangeFieldsArePinnedByName) {
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "disconnect_prob": 1.5})")
                .find("disconnect_prob"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "malformed_prob": -0.1})")
                .find("malformed_prob"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "burst_every": -1})")
                .find("burst_every"),
            std::string::npos);
}

/// Type and integer errors carry the field path; an integer field is
/// range-checked on the double before any cast to int.
TEST(Chaos, FieldErrorsCarryTheirPath) {
  EXPECT_EQ(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "burst_size": 1e300})"),
            "chaos: burst_size: expected an integer, got 1e+300");
  EXPECT_EQ(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "burst_every": 2.5})"),
            "chaos: burst_every: expected an integer, got 2.5");
  EXPECT_EQ(expect_invalid(
                R"({"schema": "hepex-chaos-plan/1", "malformed_prob": "x"})"),
            "chaos: malformed_prob: expected a number, got \"x\"");
  EXPECT_EQ(expect_invalid(R"({"schema": "hepex-chaos-plan/1", "seed": -1})"),
            "chaos: seed: expected a non-negative integer seed (< 2^53), "
            "got -1");
}

TEST(Chaos, ProbabilitiesMayNotSumPastOne) {
  // Each request draws one behavior; the branch probabilities must leave
  // room for clean traffic to share the stream.
  ChaosPlan plan;
  plan.slow_loris_prob = 0.5;
  plan.disconnect_prob = 0.3;
  plan.malformed_prob = 0.3;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(Chaos, MissingFileIsARuntimeError) {
  EXPECT_THROW((void)load_chaos_plan_file("/nonexistent/chaos.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace hepex::svc
