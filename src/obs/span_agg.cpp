#include "obs/span_agg.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"

namespace hepex::obs {

int SpanAggregator::bucket_of(double dur_s) {
  if (!(dur_s > 0.0)) return 0;
  int exp = 0;
  // dur_s = m * 2^exp with m in [0.5, 1) -> dur_s in [2^(exp-1), 2^exp).
  (void)std::frexp(dur_s, &exp);
  const int idx = (exp - 1) - kMinPow2;
  return std::clamp(idx, 0, kBuckets - 1);
}

void SpanAggregator::Stats::fold(double dur_s, int bucket) {
  if (count == 0) {
    min_s = dur_s;
    max_s = dur_s;
  } else {
    min_s = std::min(min_s, dur_s);
    max_s = std::max(max_s, dur_s);
  }
  ++count;
  total_s += dur_s;
  buckets[static_cast<std::size_t>(bucket)] += 1;
}

SpanAggregator::Category& SpanAggregator::category_slot(
    std::string_view category) {
  auto it = categories_.find(category);
  if (it == categories_.end()) {
    order_.emplace_back(category);
    it = categories_.emplace(std::string(category), Category{}).first;
  }
  return it->second;
}

void SpanAggregator::fold_into(Category& cat, int node, double dur_s) {
  const int bucket = bucket_of(dur_s);
  cat.total.fold(dur_s, bucket);
  if (node >= 0) {
    const auto ni = static_cast<std::size_t>(node);
    if (cat.per_node.size() <= ni) cat.per_node.resize(ni + 1);
    cat.per_node[ni].fold(dur_s, bucket);
  }
}

void SpanAggregator::Recorder::record(int node, double dur_s) {
  // Resolve on first record, not on construction: an unused recorder
  // must not register its category (category order is first-record
  // order, and empty categories must stay absent from snapshots).
  if (cat_ == nullptr) cat_ = &agg_->category_slot(category_);
  SpanAggregator::fold_into(*cat_, node, dur_s);
}

const SpanAggregator::Stats* SpanAggregator::find(
    std::string_view category) const {
  const auto it = categories_.find(category);
  return it != categories_.end() ? &it->second.total : nullptr;
}

const SpanAggregator::Stats* SpanAggregator::find_node(
    std::string_view category, int node) const {
  const auto it = categories_.find(category);
  if (it == categories_.end() || node < 0) return nullptr;
  const auto ni = static_cast<std::size_t>(node);
  if (ni >= it->second.per_node.size()) return nullptr;
  return &it->second.per_node[ni];
}

namespace {

util::json::Value stats_to_json(const SpanAggregator::Stats& s,
                                bool with_buckets) {
  namespace jn = util::json;
  jn::Value out = jn::Value::object();
  out.set("count", jn::Value(static_cast<double>(s.count)));
  out.set("total_s", jn::Value(s.total_s));
  out.set("min_s", jn::Value(s.min_s));
  out.set("max_s", jn::Value(s.max_s));
  if (with_buckets) {
    jn::Value buckets = jn::Value::array();
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      if (s.buckets[i] == 0) continue;
      jn::Value b = jn::Value::object();
      b.set("pow2",
            jn::Value(SpanAggregator::kMinPow2 + static_cast<int>(i)));
      b.set("count", jn::Value(static_cast<double>(s.buckets[i])));
      buckets.push_back(std::move(b));
    }
    out.set("buckets", std::move(buckets));
  }
  return out;
}

}  // namespace

util::json::Value SpanAggregator::to_json_value() const {
  namespace jn = util::json;
  jn::Value doc = jn::Value::object();
  for (const auto& name : order_) {
    const Category& cat = categories_.at(name);
    jn::Value cj = stats_to_json(cat.total, /*with_buckets=*/true);
    if (!cat.per_node.empty()) {
      jn::Value rows = jn::Value::array();
      for (std::size_t i = 0; i < cat.per_node.size(); ++i) {
        if (cat.per_node[i].count == 0) continue;
        jn::Value row = stats_to_json(cat.per_node[i], /*with_buckets=*/false);
        jn::Value tagged = jn::Value::object();
        tagged.set("node", jn::Value(static_cast<int>(i)));
        for (auto& [k, v] : row.members()) tagged.set(k, std::move(v));
        rows.push_back(std::move(tagged));
      }
      cj.set("per_node", std::move(rows));
    }
    doc.set(name, std::move(cj));
  }
  return doc;
}

}  // namespace hepex::obs
