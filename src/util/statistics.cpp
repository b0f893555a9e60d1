#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hepex::util {

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double absolute_percentage_error(double predicted, double measured) {
  HEPEX_REQUIRE(measured != 0.0, "measured value must be nonzero");
  return std::abs(predicted - measured) / std::abs(measured) * 100.0;
}

double signed_percentage_error(double predicted, double measured) {
  HEPEX_REQUIRE(measured != 0.0, "measured value must be nonzero");
  return (predicted - measured) / std::abs(measured) * 100.0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  HEPEX_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace hepex::util
