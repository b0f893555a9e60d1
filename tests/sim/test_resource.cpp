// Tests for the FCFS queueing resource: ordering, accounting, and a
// statistical comparison of the event-driven queue against M/M/1 theory
// (the same theory the analytical model uses for the network switch).

#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/queueing.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hepex::sim {
namespace {

TEST(Resource, RequiresAtLeastOneServer) {
  Simulator sim;
  EXPECT_THROW(Resource(sim, "x", 0), std::invalid_argument);
}

TEST(Resource, NegativeServiceTimeThrows) {
  Simulator sim;
  Resource r(sim, "x");
  EXPECT_THROW(r.request(SimTime{-1.0}, {}), std::invalid_argument);
}

TEST(Resource, ServesImmediatelyWhenIdle) {
  Simulator sim;
  Resource r(sim, "mem");
  SimTime done_at{-1.0};
  r.request(SimTime{2.0}, [&](SimTime waited) {
    done_at = sim.now();
    EXPECT_EQ(waited, SimTime{});
  });
  sim.run();
  EXPECT_EQ(done_at, SimTime{2.0});
  EXPECT_EQ(r.completed(), 1u);
  EXPECT_EQ(r.busy_time(), SimTime{2.0});
}

TEST(Resource, FcfsOrderAndWaitTimes) {
  Simulator sim;
  Resource r(sim, "mem");
  std::vector<int> order;
  std::vector<SimTime> waits;
  for (int i = 0; i < 3; ++i) {
    r.request(SimTime{1.0}, [&, i](SimTime waited) {
      order.push_back(i);
      waits.push_back(waited);
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_DOUBLE_EQ(waits[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(waits[1].value(), 1.0);
  EXPECT_DOUBLE_EQ(waits[2].value(), 2.0);
  EXPECT_DOUBLE_EQ(r.wait_stats().mean(), 1.0);
}

TEST(Resource, MultipleServersRunConcurrently) {
  Simulator sim;
  Resource r(sim, "net", 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 2; ++i) {
    r.request(SimTime{3.0},
              [&](SimTime) { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0].value(), 3.0);
  EXPECT_DOUBLE_EQ(completions[1].value(), 3.0);
}

TEST(Resource, QueueLengthTracksWaiters) {
  Simulator sim;
  Resource r(sim, "mem");
  for (int i = 0; i < 4; ++i) r.request(SimTime{1.0}, {});
  EXPECT_EQ(r.in_service(), 1);
  EXPECT_EQ(r.queue_length(), 3u);
  sim.run();
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.in_service(), 0);
  EXPECT_EQ(r.completed(), 4u);
}

TEST(Resource, UtilizationIsBusyFraction) {
  Simulator sim;
  Resource r(sim, "mem");
  r.request(SimTime{1.0}, {});
  sim.run();                       // now == 1
  sim.schedule(SimTime{1.0}, [] {});  // idle until 2
  sim.run();
  EXPECT_NEAR(r.utilization(), 0.5, 1e-12);
}

TEST(Resource, ObserverSeesFullJobLifecycle) {
  Simulator sim;
  Resource r(sim, "mem");
  std::vector<Resource::JobObservation> seen;
  r.set_observer([&](const Resource& res, const Resource::JobObservation& obs) {
    EXPECT_EQ(&res, &r);
    seen.push_back(obs);
  });
  r.request(SimTime{2.0}, {});
  r.request(SimTime{1.0}, {});  // queues behind the first: depth 1 at arrival
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].arrival_s.value(), 0.0);
  EXPECT_DOUBLE_EQ(seen[0].start_s.value(), 0.0);
  EXPECT_DOUBLE_EQ(seen[0].finish_s.value(), 2.0);
  EXPECT_DOUBLE_EQ(seen[0].service_s.value(), 2.0);
  EXPECT_DOUBLE_EQ(seen[0].waited_s.value(), 0.0);
  EXPECT_EQ(seen[0].depth_at_arrival, 0u);
  EXPECT_DOUBLE_EQ(seen[1].arrival_s.value(), 0.0);
  EXPECT_DOUBLE_EQ(seen[1].start_s.value(), 2.0);
  EXPECT_DOUBLE_EQ(seen[1].finish_s.value(), 3.0);
  EXPECT_DOUBLE_EQ(seen[1].waited_s.value(), 2.0);
  EXPECT_EQ(seen[1].depth_at_arrival, 1u);
}

TEST(Resource, ObserverFiresBeforeCompletionCallback) {
  Simulator sim;
  Resource r(sim, "mem");
  std::vector<int> order;
  r.set_observer([&](const Resource&, const Resource::JobObservation&) {
    order.push_back(0);
  });
  r.request(SimTime{1.0}, [&](SimTime) { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Resource, ZeroServiceJobCompletes) {
  Simulator sim;
  Resource r(sim, "mem");
  bool done = false;
  r.request(SimTime{0.0}, [&](SimTime) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

/// Statistical property: the event-driven FCFS queue under Poisson
/// arrivals + exponential service must reproduce the M/M/1 mean waiting
/// time — the same Pollaczek-Khinchine machinery the analytical model
/// applies to the switch (Eq. 5). Parameterized over offered load.
class Mm1ConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(Mm1ConvergenceTest, MeanWaitMatchesTheory) {
  const double rho = GetParam();
  const double mean_service = 1.0;
  const double lambda = rho / mean_service;

  Simulator sim;
  Resource r(sim, "queue");
  util::Rng rng(1000 + static_cast<std::uint64_t>(rho * 100));

  const int kJobs = 60000;
  double t = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    t += rng.exponential(1.0 / lambda);
    const double service = rng.exponential(mean_service);
    sim.schedule_at(SimTime{t}, [&r, service] {
      r.request(SimTime{service}, {});
    });
  }
  sim.run();

  // Exponential service: E[S^2] = 2 E[S]^2.
  const double expected =
      queueing::mg1_mean_wait(
          q::Hertz{lambda}, q::Seconds{mean_service},
          q::SecondsSq{2.0 * mean_service * mean_service})
          .value();
  // Queueing simulations converge slowly near saturation; scale tolerance.
  const double tol = 0.10 * expected + 0.03;
  EXPECT_NEAR(r.wait_stats().mean(), expected, tol)
      << "rho=" << rho << " expected W=" << expected;
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, Mm1ConvergenceTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8));

}  // namespace
}  // namespace hepex::sim
