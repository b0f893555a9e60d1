// Tests for the single-server FCFS station: ordering, accounting, the
// waiting ring across wrap-around and growth, and a
// statistical comparison of the event-driven queue against M/M/1 theory
// (the same theory the analytical model uses for the network switch).

#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/queueing.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace hepex::sim {
namespace {

TEST(Resource, NegativeServiceTimeThrows) {
  Simulator sim;
  Resource r(sim);
  EXPECT_THROW(r.request(SimTime{-1.0}, {}), std::invalid_argument);
}

TEST(Resource, ServesImmediatelyWhenIdle) {
  Simulator sim;
  Resource r(sim);
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
  Resource r(sim);
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
}

TEST(Resource, RingKeepsFifoAcrossWrapAndGrowth) {
  // Queue 4 behind nothing, let 2 finish, then queue 6 more: the ring's
  // head has moved off slot 0, so the new jobs wrap around its end
  // before it doubles (2 -> 4 -> 8 entries) with the head mid-ring.
  Simulator sim;
  Resource r(sim);
  std::vector<Resource::JobObservation> seen;
  r.set_observer([&](const Resource&, const Resource::JobObservation& obs) {
    seen.push_back(obs);
  });
  std::vector<int> order;
  std::vector<SimTime> waits;
  auto submit = [&](int id) {
    r.request(SimTime{1.0}, [&, id](SimTime waited) {
      order.push_back(id);
      waits.push_back(waited);
    });
  };
  for (int id = 0; id < 4; ++id) submit(id);
  sim.run_until(SimTime{2.0});
  ASSERT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.in_service(), 1);
  EXPECT_EQ(r.queue_length(), 1u);
  for (int id = 4; id < 10; ++id) submit(id);
  EXPECT_EQ(r.queue_length(), 7u);
  sim.run();

  // Unit service, one server: job k starts at k and finishes at k + 1;
  // jobs 0-3 arrived at 0, jobs 4-9 at 2 (behind job 2 in service and
  // job 3 waiting).
  const std::vector<std::size_t> depth = {0, 1, 2, 3, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k) {
    const double arrival = k < 4 ? 0.0 : 2.0;
    const double start = static_cast<double>(k);
    EXPECT_DOUBLE_EQ(waits[k].value(), start - arrival) << "job " << k;
    EXPECT_DOUBLE_EQ(seen[k].arrival_s.value(), arrival) << "job " << k;
    EXPECT_DOUBLE_EQ(seen[k].start_s.value(), start) << "job " << k;
    EXPECT_DOUBLE_EQ(seen[k].finish_s.value(), start + 1.0) << "job " << k;
    EXPECT_DOUBLE_EQ(seen[k].waited_s.value(), start - arrival) << "job " << k;
    EXPECT_EQ(seen[k].depth_at_arrival, depth[k]) << "job " << k;
  }
  EXPECT_EQ(r.completed(), 10u);
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(Resource, CompletionMayRequestItsOwnStation) {
  // The engine's send loop: each continuation submits the next message
  // to the station that just served it. The next waiter starts before
  // the continuation runs, so the resubmitted job queues behind it.
  Simulator sim;
  Resource r(sim);
  // (job, finish time, wait)
  std::vector<std::tuple<int, double, double>> done;
  std::vector<std::size_t> depths;
  r.set_observer([&](const Resource&, const Resource::JobObservation& obs) {
    depths.push_back(obs.depth_at_arrival);
  });
  std::function<void(int)> send = [&](int i) {
    if (i == 3) return;
    r.request(SimTime{1.0}, [&, i](SimTime waited) {
      done.emplace_back(i, sim.now().value(), waited.value());
      send(i + 1);
    });
  };
  send(0);
  r.request(SimTime{1.0}, [&](SimTime waited) {
    done.emplace_back(99, sim.now().value(), waited.value());
  });
  sim.run();
  const std::vector<std::tuple<int, double, double>> want = {
      {0, 1.0, 0.0}, {99, 2.0, 1.0}, {1, 3.0, 1.0}, {2, 4.0, 0.0}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(depths, (std::vector<std::size_t>{0, 1, 1, 0}));
}

TEST(Resource, QueueLengthTracksWaiters) {
  Simulator sim;
  Resource r(sim);
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
  Resource r(sim);
  r.request(SimTime{1.0}, {});
  sim.run();                       // now == 1
  sim.schedule(SimTime{1.0}, [] {});  // idle until 2
  sim.run();
  EXPECT_NEAR(r.utilization(), 0.5, 1e-12);
}

TEST(Resource, ObserverSeesFullJobLifecycle) {
  Simulator sim;
  Resource r(sim);
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
  Resource r(sim);
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
  Resource r(sim);
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
  Resource r(sim);
  util::Summary waits;
  util::Rng rng(1000 + static_cast<std::uint64_t>(rho * 100));

  const int kJobs = 60000;
  double t = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    t += rng.exponential(1.0 / lambda);
    const double service = rng.exponential(mean_service);
    sim.schedule_at(SimTime{t}, [&r, &waits, service] {
      r.request(SimTime{service},
                [&waits](SimTime waited) { waits.add(waited.value()); });
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
  EXPECT_NEAR(waits.mean(), expected, tol)
      << "rho=" << rho << " expected W=" << expected;
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, Mm1ConvergenceTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8));

}  // namespace
}  // namespace hepex::sim
