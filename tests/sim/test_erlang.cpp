// M/M/c theory as a reference. The analytical model needs only M/G/1
// (sim/queueing.hpp) and every simulator station is single-server, so
// the Erlang-C and M/M/c formulas live only here: the ErlangC/Mmc tests
// pin them to textbook values and to the library's M/G/1 at c = 1, and
// the convergence check measures the event-driven station against them
// at c = 1.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/queueing.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace hepex::sim::queueing {
namespace {

/// Erlang-C: the probability that an arrival to an M/M/c queue waits.
/// `offered_erlangs` = lambda * E[S]; 1 when offered >= servers.
double erlang_c(int servers, double offered_erlangs) {
  HEPEX_REQUIRE(servers >= 1, "need at least one server");
  HEPEX_REQUIRE(offered_erlangs >= 0.0, "offered load must be non-negative");
  if (offered_erlangs >= static_cast<double>(servers)) return 1.0;
  if (offered_erlangs == 0.0) return 0.0;
  // Iterative Erlang-B, then convert to Erlang-C (stable at large c).
  double b = 1.0;
  for (int k = 1; k <= servers; ++k) {
    b = offered_erlangs * b / (static_cast<double>(k) + offered_erlangs * b);
  }
  const double rho = offered_erlangs / static_cast<double>(servers);
  return b / (1.0 - rho + rho * b);
}

/// M/M/c mean wait: ErlangC / (c mu - lambda); +inf when unstable.
q::Seconds mmc_mean_wait(int servers, q::Hertz lambda,
                         q::Seconds mean_service) {
  const double offered = offered_load(lambda, mean_service);
  if (offered >= static_cast<double>(servers)) {
    return q::Seconds{std::numeric_limits<double>::infinity()};
  }
  if (lambda.value() == 0.0) return q::Seconds{};
  return erlang_c(servers, offered) * mean_service /
         (static_cast<double>(servers) - offered);
}

/// The library's M/G/1 wait with exponential service (M/M/1).
q::Seconds mm1_mean_wait(q::Hertz lambda, q::Seconds mean_service) {
  return mg1_mean_wait(lambda, mean_service,
                       2.0 * mean_service * mean_service);
}

TEST(ErlangC, BoundaryCases) {
  EXPECT_DOUBLE_EQ(erlang_c(1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(erlang_c(4, 4.0), 1.0);   // saturated
  EXPECT_DOUBLE_EQ(erlang_c(4, 10.0), 1.0);  // overloaded
  EXPECT_THROW(erlang_c(0, 1.0), std::invalid_argument);
  EXPECT_THROW(erlang_c(2, -1.0), std::invalid_argument);
}

TEST(ErlangC, SingleServerEqualsRho) {
  // For M/M/1, P(wait) = rho.
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(erlang_c(1, rho), rho, 1e-12);
  }
}

TEST(ErlangC, KnownTextbookValue) {
  // Classic call-centre example: c = 10, offered = 8 Erlangs.
  EXPECT_NEAR(erlang_c(10, 8.0), 0.409, 0.005);
}

TEST(ErlangC, MoreServersWaitLess) {
  for (int c = 2; c <= 16; c *= 2) {
    EXPECT_LT(erlang_c(c, 1.5), erlang_c(c - 1, 1.5));
  }
}

TEST(Mmc, ReducesToMm1) {
  const double lambda = 0.6;
  const double s = 1.0;
  EXPECT_NEAR(mmc_mean_wait(1, q::Hertz{lambda}, q::Seconds{s}).value(),
              mm1_mean_wait(q::Hertz{lambda}, q::Seconds{s}).value(), 1e-12);
}

TEST(Mmc, UnstableIsInfinite) {
  EXPECT_TRUE(std::isinf(
      mmc_mean_wait(2, q::Hertz{3.0}, q::Seconds{1.0}).value()));
}

TEST(Mmc, ZeroArrivalsNoWait) {
  EXPECT_DOUBLE_EQ(mmc_mean_wait(4, q::Hertz{0.0}, q::Seconds{1.0}).value(),
                   0.0);
}

TEST(Mmc, PoolingBeatsPartitioning) {
  // One pooled c-server queue waits less than each of c separate M/M/1
  // queues at the same per-server load — the reason a shared switch
  // fabric behaves better than dedicated half-speed links.
  const double per_server_lambda = 0.8;
  const double s = 1.0;
  EXPECT_LT(mmc_mean_wait(4, q::Hertz{4 * per_server_lambda}, q::Seconds{s}),
            mm1_mean_wait(q::Hertz{per_server_lambda}, q::Seconds{s}));
}

/// The event-driven single-server station must converge to Erlang-C at
/// c = 1 (the station has no multi-server mode to sweep).
class MmcConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MmcConvergenceTest, MeanWaitMatchesTheory) {
  const int servers = GetParam();
  const double mean_service = 1.0;
  const double rho = 0.7;
  const double lambda = rho * servers / mean_service;

  Simulator sim;
  Resource r(sim);
  util::Summary waits;
  util::Rng rng(4242 + static_cast<std::uint64_t>(servers));
  double t = 0.0;
  for (int i = 0; i < 60000; ++i) {
    t += rng.exponential(1.0 / lambda);
    const double service = rng.exponential(mean_service);
    sim.schedule_at(SimTime{t}, [&r, &waits, service] {
      r.request(SimTime{service},
                [&waits](SimTime waited) { waits.add(waited.value()); });
    });
  }
  sim.run();
  const double expected =
      mmc_mean_wait(servers, q::Hertz{lambda}, q::Seconds{mean_service})
          .value();
  EXPECT_NEAR(waits.mean(), expected, 0.12 * expected + 0.01)
      << "servers=" << servers;
}

INSTANTIATE_TEST_SUITE_P(ServerSweep, MmcConvergenceTest,
                         ::testing::Values(1));

}  // namespace
}  // namespace hepex::sim::queueing
