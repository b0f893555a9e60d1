// Tests for the closed-form queueing formula (Pollaczek-Khinchine).

#include "sim/queueing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace hepex::sim::queueing {
namespace {

/// E[S^2] of an exponential service time (M/M/1): 2 E[S]^2.
q::SecondsSq exponential_moment(double mean_service) {
  return q::SecondsSq{2.0 * mean_service * mean_service};
}

/// E[S^2] of a deterministic service time (M/D/1): E[S]^2.
q::SecondsSq deterministic_moment(double mean_service) {
  return q::SecondsSq{mean_service * mean_service};
}

q::Seconds mm1_wait(double lambda, double mean_service) {
  return mg1_mean_wait(q::Hertz{lambda}, q::Seconds{mean_service},
                       exponential_moment(mean_service));
}

q::Seconds md1_wait(double lambda, double mean_service) {
  return mg1_mean_wait(q::Hertz{lambda}, q::Seconds{mean_service},
                       deterministic_moment(mean_service));
}

TEST(Queueing, OfferedLoad) {
  EXPECT_DOUBLE_EQ(offered_load(q::Hertz{2.0}, q::Seconds{0.25}), 0.5);
  EXPECT_DOUBLE_EQ(offered_load(q::Hertz{0.0}, q::Seconds{1.0}), 0.0);
  EXPECT_THROW(offered_load(q::Hertz{-1.0}, q::Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(offered_load(q::Hertz{1.0}, q::Seconds{-1.0}), std::invalid_argument);
}

TEST(Queueing, SecondMoments) {
  // The P-K wait is linear in E[S^2] at a fixed load.
  const q::Hertz lambda{0.5};
  const q::Seconds s{1.0};
  const double w1 = mg1_mean_wait(lambda, s, q::SecondsSq{1.0}).value();
  EXPECT_NEAR(mg1_mean_wait(lambda, s, q::SecondsSq{3.0}).value(), 3.0 * w1,
              1e-12);
  EXPECT_DOUBLE_EQ(mg1_mean_wait(lambda, s, q::SecondsSq{0.0}).value(), 0.0);
}

TEST(Queueing, Mm1KnownValue) {
  // rho = 0.5, E[S] = 1: W = rho/(1-rho) * E[S] = 1.
  EXPECT_NEAR(mm1_wait(0.5, 1.0).value(), 1.0, 1e-12);
}

TEST(Queueing, Md1IsHalfOfMm1) {
  // Deterministic service halves the PK waiting time.
  const double lambda = 0.6;
  const double s = 1.0;
  EXPECT_NEAR(md1_wait(lambda, s).value(), 0.5 * mm1_wait(lambda, s).value(),
              1e-12);
}

TEST(Queueing, Mg1MatchesManualPk) {
  const double lambda = 0.4;
  const double es = 1.5;
  const double es2 = 4.0;
  const double rho = lambda * es;
  const double expected = lambda * es2 / (2.0 * (1.0 - rho));
  EXPECT_NEAR(mg1_mean_wait(q::Hertz{lambda}, q::Seconds{es},
                            q::SecondsSq{es2})
                  .value(),
              expected, 1e-12);
}

TEST(Queueing, UnstableQueueIsInfinite) {
  EXPECT_TRUE(std::isinf(mm1_wait(1.0, 1.0).value()));
  EXPECT_TRUE(std::isinf(mm1_wait(2.0, 1.0).value()));
}

TEST(Queueing, ZeroArrivalsNoWait) {
  EXPECT_DOUBLE_EQ(mm1_wait(0.0, 1.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(md1_wait(0.0, 1.0).value(), 0.0);
}

TEST(Queueing, NegativeSecondMomentThrows) {
  EXPECT_THROW(mg1_mean_wait(q::Hertz{0.5}, q::Seconds{1.0},
                             q::SecondsSq{-1.0}),
               std::invalid_argument);
}

/// Waiting time must grow monotonically (and convexly) with load.
class PkMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(PkMonotoneTest, WaitGrowsWithLoad) {
  const double rho = GetParam();
  const double s = 1.0;
  EXPECT_LT(mm1_wait(rho, s), mm1_wait(rho + 0.05, s));
  EXPECT_LT(md1_wait(rho, s), md1_wait(rho + 0.05, s));
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, PkMonotoneTest,
                         ::testing::Values(0.05, 0.15, 0.3, 0.45, 0.6, 0.75,
                                           0.9));

}  // namespace
}  // namespace hepex::sim::queueing
