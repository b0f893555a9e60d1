// End-to-end tests for the Advisor facade — the library's headline API.

#include "core/advisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "hw/presets.hpp"
#include "workload/programs.hpp"

namespace hepex::core {
namespace {

using workload::InputClass;

model::CharacterizationOptions fast_options() {
  model::CharacterizationOptions o;
  o.baseline_class = InputClass::kW;
  o.sim.chunks_per_iteration = 8;
  return o;
}

Advisor make_advisor() {
  return Advisor(hw::xeon_cluster(), workload::make_sp(InputClass::kA),
                 fast_options());
}

TEST(Advisor, ExploreCoversTheModelSpace) {
  Advisor a = make_advisor();
  EXPECT_EQ(a.explore().size(), 216u);  // Fig. 8's configuration count
  for (const auto& p : a.explore()) {
    EXPECT_GT(p.time_s.value(), 0.0);
    EXPECT_GT(p.energy_j.value(), 0.0);
    EXPECT_GT(p.ucr, 0.0);
    EXPECT_LE(p.ucr, 1.0);
  }
}

TEST(Advisor, FrontierIsNonEmptyAndNonDominated) {
  Advisor a = make_advisor();
  const auto frontier = a.frontier();
  ASSERT_FALSE(frontier.empty());
  ASSERT_LT(frontier.size(), a.explore().size());
  for (const auto& f : frontier) {
    for (const auto& p : a.explore()) {
      EXPECT_FALSE(pareto::dominates(p, f));
    }
  }
}

TEST(Advisor, ExploreAndFrontierAreCachedAcrossCalls) {
  // explore()/frontier() return references into the Advisor's caches, so
  // repeated calls must hand back the very same storage — the model is
  // evaluated once, not per query.
  Advisor a = make_advisor();
  const auto* space1 = a.explore().data();
  const auto* space2 = a.explore().data();
  EXPECT_EQ(space1, space2);
  const auto* front1 = a.frontier().data();
  const auto* front2 = a.frontier().data();
  EXPECT_EQ(front1, front2);
  // frontier() after explore() must not rebuild the space either.
  EXPECT_EQ(a.explore().data(), space1);
}

TEST(Advisor, KneeLiesOnTheCachedFrontier) {
  Advisor a = make_advisor();
  const auto knee1 = pareto::knee_point(a.frontier());
  // repeat query, served from the cached frontier
  const auto knee2 = pareto::knee_point(a.frontier());
  EXPECT_EQ(knee1.config, knee2.config);
  EXPECT_EQ(knee1.time_s.value(), knee2.time_s.value());
  const auto& frontier = a.frontier();
  const bool on_frontier =
      std::any_of(frontier.begin(), frontier.end(),
                  [&](const pareto::ConfigPoint& p) {
                    return p.config == knee1.config;
                  });
  EXPECT_TRUE(on_frontier);
}

TEST(Advisor, PredictIsMemoizedConsistently) {
  // predict() answers from a (nodes, cores, f) cache; a repeated query
  // must be bitwise-stable and agree with the swept space.
  Advisor a = make_advisor();
  const auto& space = a.explore();
  const auto& cfg = space[space.size() / 2].config;
  const auto p1 = a.predict(cfg);
  const auto p2 = a.predict(cfg);
  EXPECT_EQ(p1.time_s.value(), p2.time_s.value());
  EXPECT_EQ(p1.energy_j.value(), p2.energy_j.value());
  EXPECT_EQ(p1.ucr, p2.ucr);
  EXPECT_EQ(p1.time_s.value(), space[space.size() / 2].time_s.value());
  EXPECT_EQ(p1.energy_j.value(), space[space.size() / 2].energy_j.value());
}

TEST(Advisor, DeadlineRecommendationIsFeasibleAndMinimal) {
  Advisor a = make_advisor();
  const auto frontier = a.frontier();
  const q::Seconds deadline =
      0.5 * (frontier.front().time_s + frontier.back().time_s);
  const auto rec = a.for_deadline(deadline);
  ASSERT_TRUE(rec.has_value());
  EXPECT_LE(rec->point.time_s, deadline);
  EXPECT_GE(rec->slack, 0.0);
  for (const auto& p : a.explore()) {
    if (p.time_s <= deadline) {
      EXPECT_LE(rec->point.energy_j, p.energy_j);
    }
  }
}

TEST(Advisor, ImpossibleDeadlineReturnsNothing) {
  Advisor a = make_advisor();
  EXPECT_FALSE(a.for_deadline(q::Seconds{1e-6}).has_value());
}

TEST(Advisor, BudgetRecommendationIsFeasibleAndMinimal) {
  Advisor a = make_advisor();
  const auto frontier = a.frontier();
  const q::Joules budget =
      0.5 * (frontier.front().energy_j + frontier.back().energy_j);
  const auto rec = a.for_budget(budget);
  ASSERT_TRUE(rec.has_value());
  EXPECT_LE(rec->point.energy_j, budget);
  for (const auto& p : a.explore()) {
    if (p.energy_j <= budget) {
      EXPECT_LE(rec->point.time_s, p.time_s);
    }
  }
}

TEST(Advisor, TighterDeadlineNeverUsesLessEnergy) {
  // The Pareto trade-off: relaxing the deadline can only save energy.
  Advisor a = make_advisor();
  const auto frontier = a.frontier();
  const q::Seconds t_min = frontier.front().time_s;
  const q::Seconds t_max = frontier.back().time_s;
  q::Joules prev_energy{1e300};
  for (int i = 0; i <= 10; ++i) {
    const q::Seconds deadline = t_min + (t_max - t_min) * (i / 10.0);
    const auto rec = a.for_deadline(deadline);
    ASSERT_TRUE(rec.has_value());
    EXPECT_LE(rec->point.energy_j, prev_energy);
    prev_energy = rec->point.energy_j;
  }
}

TEST(Advisor, SplitAlternativesPartitionTotalCores) {
  Advisor a = make_advisor();
  const auto splits = a.split_alternatives(16, q::Hertz{1.8e9});
  ASSERT_FALSE(splits.empty());
  for (const auto& s : splits) {
    EXPECT_EQ(s.config.nodes * s.config.cores, 16);
  }
  EXPECT_THROW(a.split_alternatives(0, q::Hertz{1.8e9}),
               std::invalid_argument);
}

TEST(Advisor, SplitChoiceMatters) {
  // The paper's point: choosing l and tau for a fixed core budget is
  // non-obvious — alternatives differ meaningfully in time and energy.
  Advisor a = make_advisor();
  const auto splits = a.split_alternatives(8, q::Hertz{1.8e9});
  ASSERT_GE(splits.size(), 3u);
  q::Seconds t_min{1e300}, t_max{};
  for (const auto& s : splits) {
    t_min = std::min(t_min, s.time_s);
    t_max = std::max(t_max, s.time_s);
  }
  EXPECT_GT(t_max / t_min, 1.05);
}

TEST(Advisor, KneeLiesOnTheFrontier) {
  Advisor a = make_advisor();
  const auto knee = pareto::knee_point(a.frontier());
  bool member = false;
  for (const auto& p : a.frontier()) {
    member |= (p.config == knee.config);
  }
  EXPECT_TRUE(member);
  // The knee is strictly inside the time range of a multi-point frontier.
  const auto frontier = a.frontier();
  ASSERT_GT(frontier.size(), 2u);
  EXPECT_LE(knee.time_s, frontier.back().time_s);
  EXPECT_GE(knee.time_s, frontier.front().time_s);
}

TEST(Advisor, MemoryBandwidthWhatIfImprovesSp) {
  // §V-B: doubled memory bandwidth lifts SP's UCR at (1,8,1.8 GHz) and
  // moves the Pareto point to both lower time and lower energy.
  Advisor a = make_advisor();
  const hw::ClusterConfig cfg{1, 8, q::Hertz{1.8e9}};
  const auto before = a.predict(cfg);
  Advisor improved = a.with_memory_bandwidth(2.0);
  const auto after = improved.predict(cfg);
  EXPECT_GT(after.ucr, before.ucr + 0.05);
  EXPECT_LT(after.time_s, before.time_s);
  EXPECT_LT(after.energy_j, before.energy_j);
}

TEST(Advisor, ResilientExploreFoldsOverheadIntoEveryPoint) {
  Advisor a = make_advisor();
  model::ResilienceSpec spec;
  spec.node_mtbf_s = 86400.0;  // one failure per node-day
  const auto resilient = a.explore_resilient(spec);
  ASSERT_FALSE(resilient.empty());
  ASSERT_LE(resilient.size(), a.explore().size());
  // Every surviving point costs at least its fault-free counterpart.
  for (const auto& r : resilient) {
    for (const auto& p : a.explore()) {
      if (p.config == r.config) {
        EXPECT_GE(r.time_s, p.time_s);
        EXPECT_GE(r.energy_j, p.energy_j);
      }
    }
  }
}

TEST(Advisor, RecommendResilientIsMinimumExpectedEnergy) {
  Advisor a = make_advisor();
  model::ResilienceSpec spec;
  spec.node_mtbf_s = 86400.0;
  const auto rec = a.recommend_resilient(spec);
  for (const auto& p : a.explore_resilient(spec)) {
    EXPECT_LE(rec.energy_j, p.energy_j + q::Joules{1e-9});
  }
}

TEST(Advisor, HighFailureRateReranksTowardFewerNodes) {
  // The resilience thesis: as the cluster MTBF shrinks with n, wide
  // configurations pay more expected rework, so the energy optimum under
  // an aggressive failure rate uses no more nodes than the fault-free
  // optimum (and the frontier thins out as points become infeasible).
  Advisor a = make_advisor();
  const auto space = a.explore();
  const auto fault_free_best = *std::min_element(
      space.begin(), space.end(),
      [](const auto& x, const auto& y) { return x.energy_j < y.energy_j; });

  model::ResilienceSpec harsh;
  harsh.node_mtbf_s = 2000.0;
  harsh.checkpoint_write_s = 5.0;
  harsh.restart_s = 30.0;
  const auto rec = a.recommend_resilient(harsh);
  EXPECT_LE(rec.config.nodes, fault_free_best.config.nodes);
  // Resilience is never free: the best expected energy exceeds the
  // fault-free optimum.
  EXPECT_GT(rec.energy_j, fault_free_best.energy_j);
}

TEST(Advisor, ResilientFrontierIsNonDominatedWithinTheResilientSpace) {
  Advisor a = make_advisor();
  model::ResilienceSpec spec;
  spec.node_mtbf_s = 86400.0;
  const auto frontier = a.resilient_frontier(spec);
  const auto space = a.explore_resilient(spec);
  ASSERT_FALSE(frontier.empty());
  for (const auto& f : frontier) {
    for (const auto& p : space) {
      EXPECT_FALSE(pareto::dominates(p, f));
    }
  }
}

TEST(Advisor, RecommendResilientThrowsWhenNothingMakesProgress) {
  Advisor a = make_advisor();
  model::ResilienceSpec hopeless;
  hopeless.node_mtbf_s = 1.0;  // a failure every second per node
  EXPECT_THROW(a.recommend_resilient(hopeless), std::invalid_argument);
}

TEST(Advisor, AccessorsExposeInputs) {
  Advisor a = make_advisor();
  EXPECT_EQ(a.machine().name, "Intel Xeon E5-2603");
  EXPECT_EQ(a.program().name, "SP");
}

}  // namespace
}  // namespace hepex::core
