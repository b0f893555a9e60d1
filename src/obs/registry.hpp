#pragma once
/// \file registry.hpp
/// \brief Named counters, gauges and fixed-bucket histograms.
///
/// A `Registry` is the simulator's "what happened, in numbers" channel —
/// the aggregate companion to the per-event timeline of `TraceSink`. The
/// execution engine (and anything else handed a registry) registers
/// instruments by name and bumps them as the run proceeds; `to_json()`
/// snapshots everything into a machine-readable document.
///
/// Semantics follow the Prometheus conventions the names suggest:
///  - `Counter` — monotonically increasing integer total;
///  - `Gauge`   — a double that can move both ways (set/add);
///  - `Histogram` — cumulative-style fixed buckets defined by upper
///    bounds, plus count/sum/min/max. Bucket counts here are
///    *per-bucket* (not cumulative); the JSON encodes the `le` bound of
///    each bucket with `"+Inf"` for the implicit overflow bucket.
///
/// Instrument references returned by the registry are stable for the
/// registry's lifetime, so hot paths can look up once and bump a pointer.
///
/// Snapshot ordering is part of the contract: `to_json` emits each kind's
/// instruments in *registration order* (first `counter(name)` call wins a
/// slot), so the bytes are a deterministic function of the program's
/// instrumentation path, never of the container behind the lookup.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hepex::util::json {
class Value;
}  // namespace hepex::util::json

namespace hepex::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void inc() { value_ += 1; }
  void add(std::uint64_t delta) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous double-valued metric.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Buckets are defined by ascending upper bounds;
/// an implicit +Inf bucket catches everything above the last bound.
class Histogram {
 public:
  /// \param upper_bounds ascending bucket upper bounds (may be empty, in
  ///        which case only the +Inf bucket exists). Throws
  ///        std::invalid_argument when not strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Record one sample.
  void observe(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Smallest observed sample; +inf when empty.
  double min() const { return min_; }
  /// Largest observed sample; -inf when empty.
  double max() const { return max_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// The configured upper bounds (without the implicit +Inf).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket sample counts; size == bounds().size() + 1, last is +Inf.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 1.0 / 0.0;
  double max_ = -1.0 / 0.0;
};

/// Bag of named instruments, snapshotable to JSON.
///
/// Threading contract: Registry is deliberately unsynchronized — it is
/// built during single-threaded setup and snapshotted after parallel
/// regions drain (the zero-perturbation rule: no instrument adds a lock
/// to a hot loop). Callers that share one across threads must serialize
/// externally; the concurrent counters live in svc::ServerStats, not
/// here. Snapshots iterate the std::map in name order, so output is a
/// function of the instruments registered, never of timing.
class Registry {
 public:
  /// Get or create the named instrument. References stay valid for the
  /// registry's lifetime. `histogram` returns the existing instrument
  /// unchanged when the name is already registered (the bounds argument
  /// is ignored in that case).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Snapshot as a JSON document:
  /// ```json
  /// {
  ///   "counters": {"name": 42, ...},
  ///   "gauges": {"name": 0.5, ...},
  ///   "histograms": {
  ///     "name": {"count": N, "sum": S, "min": m, "max": M,
  ///              "buckets": [{"le": 1.0, "count": 3}, ...,
  ///                          {"le": "+Inf", "count": 0}]}
  ///   }
  /// }
  /// ```
  /// Keys appear in registration order within each kind — the snapshot
  /// bytes are pinned by tests and consumed by `--metrics` files and
  /// RunReport artifacts.
  std::string to_json() const;

  /// The same snapshot as a `util::json` value, for embedding into larger
  /// artifacts (obs::RunReport) without a dump/parse round trip.
  util::json::Value to_json_value() const;

 private:
  // std::map keeps instrument references stable across growth; the order
  // vectors record first-registration order for deterministic snapshots.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<std::string> counter_order_;
  std::vector<std::string> gauge_order_;
  std::vector<std::string> histogram_order_;
};

}  // namespace hepex::obs
