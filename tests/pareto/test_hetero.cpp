// Tests for cross-machine Pareto analysis.

#include "pareto/hetero.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hepex::pareto {
namespace {

ConfigPoint pt(double t, double e) {
  ConfigPoint p;
  p.time_s = q::Seconds{t};
  p.energy_j = q::Joules{e};
  return p;
}

MachineCandidate fast_costly() {
  // A "Xeon-like" machine: fast but power-hungry.
  return MachineCandidate{"fast", {pt(1, 20), pt(2, 15), pt(4, 12)}};
}

MachineCandidate slow_frugal() {
  // An "ARM-like" machine: slow but frugal.
  return MachineCandidate{"frugal", {pt(8, 6), pt(16, 4), pt(32, 3)}};
}

TEST(Hetero, CombinedFrontierInterleavesMachines) {
  const auto frontier =
      combined_frontier({fast_costly(), slow_frugal()});
  ASSERT_EQ(frontier.size(), 6u);  // none dominated in this construction
  EXPECT_EQ(frontier.front().machine, "fast");
  EXPECT_EQ(frontier.back().machine, "frugal");
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].point.time_s, frontier[i - 1].point.time_s);
    EXPECT_LT(frontier[i].point.energy_j, frontier[i - 1].point.energy_j);
  }
}

TEST(Hetero, DominatedMachinePointsDisappear) {
  MachineCandidate dominated{"bad", {pt(10, 100), pt(20, 90)}};
  const auto frontier = combined_frontier({fast_costly(), dominated});
  for (const auto& lp : frontier) EXPECT_NE(lp.machine, "bad");
}

TEST(Hetero, EmptyCandidateListThrows) {
  EXPECT_THROW(combined_frontier({}), std::invalid_argument);
}

TEST(Hetero, BestForDeadlinePicksAcrossMachines) {
  const std::vector<MachineCandidate> ms{fast_costly(), slow_frugal()};
  // Tight deadline: only the fast machine qualifies.
  auto r = best_for_deadline(ms, q::Seconds{2.0});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->machine, "fast");
  EXPECT_EQ(r->point.energy_j.value(), 15.0);
  // Relaxed deadline: the frugal machine wins on energy.
  r = best_for_deadline(ms, q::Seconds{40.0});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->machine, "frugal");
  EXPECT_EQ(r->point.energy_j.value(), 3.0);
  // Impossible deadline.
  EXPECT_FALSE(best_for_deadline(ms, q::Seconds{0.5}).has_value());
  EXPECT_THROW(best_for_deadline(ms, q::Seconds{}), std::invalid_argument);
}

TEST(Hetero, CrossoverDeadlineSeparatesRegimes) {
  const auto cross = crossover_deadline(fast_costly(), slow_frugal());
  ASSERT_TRUE(cross.has_value());
  // Below the crossover the fast machine wins, above it the frugal one.
  EXPECT_GT(cross->value(), 4.0);
  EXPECT_LT(cross->value(), 8.5);
  const std::vector<MachineCandidate> ms{fast_costly(), slow_frugal()};
  EXPECT_EQ(best_for_deadline(ms, *cross * 0.5)->machine, "fast");
  EXPECT_EQ(best_for_deadline(ms, *cross * 2.0)->machine, "frugal");
}

TEST(Hetero, NoCrossoverWhenOneMachineAlwaysWins) {
  MachineCandidate strictly_better{"better", {pt(1, 1), pt(2, 0.5)}};
  MachineCandidate strictly_worse{"worse", {pt(3, 10), pt(6, 8)}};
  EXPECT_FALSE(
      crossover_deadline(strictly_better, strictly_worse).has_value());
}

// Two machines offering bit-identical (time, energy) points: the label
// that survives into the combined frontier must not depend on candidate
// order (pre-fix, the unstable sort's tie handling let it). Pinned as a
// bit-identity check: both orders produce byte-equal frontiers.
TEST(Hetero, CombinedFrontierDeterministicOnTiedPoints) {
  const MachineCandidate alpha{"alpha", {pt(1, 20), pt(4, 12)}};
  const MachineCandidate beta{"beta", {pt(1, 20), pt(4, 12)}};
  const auto fwd = combined_frontier({alpha, beta});
  const auto rev = combined_frontier({beta, alpha});
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    EXPECT_EQ(fwd[i].machine, rev[i].machine) << "slot " << i;
    EXPECT_EQ(fwd[i].point.time_s.value(), rev[i].point.time_s.value());
    EXPECT_EQ(fwd[i].point.energy_j.value(), rev[i].point.energy_j.value());
  }
  // The tie-break is lexicographic, so "alpha" owns every tied point.
  for (const auto& lp : fwd) EXPECT_EQ(lp.machine, "alpha");
}

TEST(Hetero, EmptyPointsThrow) {
  MachineCandidate empty{"x", {}};
  EXPECT_THROW(crossover_deadline(empty, fast_costly()),
               std::invalid_argument);
}

}  // namespace
}  // namespace hepex::pareto
