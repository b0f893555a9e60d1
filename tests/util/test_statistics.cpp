// Unit tests for the streaming statistics accumulator and error metrics.

#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace hepex::util {
namespace {

TEST(Summary, EmptyHasNeutralValues) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Summary, KnownMeanAndVariance) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, WelfordMatchesTwoPassOnManySamples) {
  Summary s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(std::sin(i) * 100.0 + i * 0.01);
  for (double x : xs) s.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(ErrorMetrics, AbsolutePercentageError) {
  EXPECT_DOUBLE_EQ(absolute_percentage_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(absolute_percentage_error(90.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(absolute_percentage_error(100.0, 100.0), 0.0);
}

TEST(ErrorMetrics, SignedPercentageError) {
  EXPECT_DOUBLE_EQ(signed_percentage_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(signed_percentage_error(90.0, 100.0), -10.0);
}

TEST(ErrorMetrics, ZeroMeasuredThrows) {
  EXPECT_THROW(absolute_percentage_error(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(signed_percentage_error(1.0, 0.0), std::invalid_argument);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, OutOfRangeThrows) {
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

class PercentileMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  std::vector<double> xs;
  for (int i = 0; i < 37; ++i) xs.push_back(std::sin(i * 2.3) * 50.0);
  const double p = GetParam();
  EXPECT_LE(percentile(xs, p), percentile(xs, std::min(100.0, p + 10.0)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotoneTest,
                         ::testing::Values(0.0, 10.0, 25.0, 40.0, 55.0, 70.0,
                                           85.0, 90.0));

}  // namespace
}  // namespace hepex::util
