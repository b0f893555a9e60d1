#pragma once
/// \file span_agg.hpp
/// \brief Streaming span aggregation: fixed-memory per-category statistics.
///
/// `TraceSink` keeps every span — perfect for a Perfetto timeline of one
/// small run, infeasible for a 1000-node campaign. `SpanAggregator` is
/// the streaming companion: the execution engine feeds it the *same*
/// spans it would trace, and the aggregator folds each into per-category
/// (and per-node) statistics of constant size: count, total, min, max and
/// a log-bucketed duration histogram. Memory is O(categories × nodes),
/// independent of run length.
///
/// The zero-perturbation contract of `hepex::obs` applies: recording a
/// span never schedules events, consumes randomness or reads host time,
/// so a simulation's Measurement is bit-identical with or without an
/// aggregator attached (pinned by tests/trace/test_determinism.cpp).
///
/// Not thread-safe — like `TraceSink`, one aggregator observes one run.
/// Ensembles take no sinks (trace/ensemble.hpp), so no aggregator ever
/// sees two runs.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hepex::util::json {
class Value;
}  // namespace hepex::util::json

namespace hepex::obs {

/// Folds spans into per-category statistics with log-spaced buckets.
class SpanAggregator {
 private:
  struct Category;  // defined below; named early for Recorder's cache

 public:
  /// Bucket i covers durations in [2^(kMinPow2+i), 2^(kMinPow2+i+1)),
  /// with the first and last buckets absorbing under/overflow. The range
  /// 2^-40 s (~1 ps) .. 2^23 s (~97 days) brackets everything a
  /// simulated HPC run can produce.
  static constexpr int kMinPow2 = -40;
  static constexpr int kBuckets = 64;

  /// Statistics of one category (or one node within a category).
  struct Stats {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double min_s = 0.0;  ///< smallest observed duration; 0 when empty
    double max_s = 0.0;  ///< largest observed duration; 0 when empty
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Fold one duration into `bucket` (computed once per span, even
    /// when the span folds into both the total and a per-node row).
    void fold(double dur_s, int bucket);
    double mean_s() const {
      return count > 0 ? total_s / static_cast<double>(count) : 0.0;
    }
  };

  /// The bucket index a duration falls into (exact binary exponent via
  /// frexp — no FP log, so bucketing is portable and deterministic).
  /// Durations <= 0 land in bucket 0.
  static int bucket_of(double dur_s);

  /// Node of the cluster-wide spans (iterations, recoveries) that belong
  /// to no single node: they fold into the category total only.
  static constexpr int kClusterNode = -1;

  /// The one way to fold spans: a handle to one category that resolves
  /// the category map entry on its first record, not per span. Resolution
  /// is lazy on purpose — merely creating a Recorder registers nothing,
  /// so category order (and hence output) is first-*record* order.
  class Recorder {
   public:
    Recorder() = default;
    /// Fold one span. `node` attributes it to a per-node row as well;
    /// kClusterNode folds into the category total only.
    void record(int node, double dur_s);

   private:
    friend class SpanAggregator;
    Recorder(SpanAggregator* agg, std::string_view category)
        : agg_(agg), category_(category) {}
    SpanAggregator* agg_ = nullptr;
    std::string_view category_;  // must outlive the recorder (literals)
    Category* cat_ = nullptr;
  };

  /// A lazy handle for `category`. The string_view must outlive the
  /// recorder — pass a string literal.
  Recorder recorder(std::string_view category) {
    return Recorder(this, category);
  }

  /// Category-total statistics; nullptr when the category never fired.
  const Stats* find(std::string_view category) const;
  /// Per-node statistics; nullptr when the category or node is absent.
  const Stats* find_node(std::string_view category, int node) const;

  /// Categories in first-record order (deterministic: the engine's event
  /// order is a pure function of the seed).
  const std::vector<std::string>& categories() const { return order_; }
  bool empty() const { return order_.empty(); }

  /// Snapshot: one object per category, in first-record order:
  /// ```json
  /// {"compute": {"count": N, "total_s": T, "min_s": m, "max_s": M,
  ///              "buckets": [{"pow2": -17, "count": 3}, ...],
  ///              "per_node": [{"node": 0, "count": ..., ...}, ...]},
  ///  ...}
  /// ```
  /// Empty buckets are omitted; `per_node` is omitted for categories
  /// recorded only against kClusterNode.
  util::json::Value to_json_value() const;

 private:
  struct Category {
    Stats total;
    std::vector<Stats> per_node;  // indexed by node; grown on demand
  };

  /// Find-or-create (registering in order_) the category's slot. The
  /// returned reference is stable for the aggregator's lifetime.
  Category& category_slot(std::string_view category);
  /// Fold one span into a resolved category (one bucket computation).
  static void fold_into(Category& cat, int node, double dur_s);

  std::map<std::string, Category, std::less<>> categories_;
  std::vector<std::string> order_;  // first-record order
};

}  // namespace hepex::obs
