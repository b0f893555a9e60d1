#pragma once
/// \file statistics.hpp
/// \brief Streaming summary statistics and error metrics.
///
/// `Summary` implements Welford's online algorithm so validation sweeps can
/// accumulate thousands of samples without storing them. Free functions
/// cover the error metrics Table 2 of the paper reports (mean absolute
/// percentage error and its standard deviation).

#include <cstddef>
#include <vector>

namespace hepex::util {

/// Online mean/variance/min/max accumulator (Welford).
class Summary {
 public:
  /// Add one sample. Welford's update, inline: the simulator's queueing
  /// stations call this for every job's wait, which puts it on the
  /// per-event hot path.
  void add(double x) {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Number of samples seen.
  std::size_t count() const { return n_; }
  /// Arithmetic mean; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  /// Smallest sample; +inf when empty.
  double min() const { return min_; }
  /// Largest sample; -inf when empty.
  double max() const { return max_; }
  /// Sum of all samples.
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1.0 / 0.0;   // +inf
  double max_ = -1.0 / 0.0;  // -inf
  double sum_ = 0.0;
};

/// |predicted - measured| / measured, in percent. `measured` must be nonzero.
double absolute_percentage_error(double predicted, double measured);

/// Signed (predicted - measured) / measured, in percent.
double signed_percentage_error(double predicted, double measured);

/// p-th percentile (0..100) of a copy of `xs` using linear interpolation.
/// Returns 0 for empty input.
double percentile(std::vector<double> xs, double p);

}  // namespace hepex::util
