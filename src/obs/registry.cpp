#include "obs/registry.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/json.hpp"

namespace hepex::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    fail_require("histogram bucket bounds must be strictly ascending");
  }
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

Counter& Registry::counter(const std::string& name) {
  const auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) counter_order_.push_back(name);
  return it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  const auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) gauge_order_.push_back(name);
  return it->second;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  histogram_order_.push_back(name);
  return histograms_.emplace(name, Histogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

std::string Registry::to_json() const {
  return util::json::dump(to_json_value());
}

util::json::Value Registry::to_json_value() const {
  namespace jn = util::json;
  jn::Value doc = jn::Value::object();

  jn::Value counters = jn::Value::object();
  for (const auto& name : counter_order_) {
    counters.set(name,
                 jn::Value(static_cast<double>(counters_.at(name).value())));
  }
  doc.set("counters", std::move(counters));

  jn::Value gauges = jn::Value::object();
  for (const auto& name : gauge_order_) {
    gauges.set(name, jn::Value(gauges_.at(name).value()));
  }
  doc.set("gauges", std::move(gauges));

  jn::Value histograms = jn::Value::object();
  for (const auto& name : histogram_order_) {
    const Histogram& h = histograms_.at(name);
    jn::Value hj = jn::Value::object();
    hj.set("count", jn::Value(static_cast<double>(h.count())));
    hj.set("sum", jn::Value(h.sum()));
    if (h.count() > 0) {
      hj.set("min", jn::Value(h.min()));
      hj.set("max", jn::Value(h.max()));
    } else {
      hj.set("min", jn::Value());
      hj.set("max", jn::Value());
    }
    jn::Value buckets = jn::Value::array();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      jn::Value b = jn::Value::object();
      if (i < h.bounds().size()) {
        b.set("le", jn::Value(h.bounds()[i]));
      } else {
        b.set("le", jn::Value("+Inf"));
      }
      b.set("count", jn::Value(static_cast<double>(counts[i])));
      buckets.push_back(std::move(b));
    }
    hj.set("buckets", std::move(buckets));
    histograms.set(name, std::move(hj));
  }
  doc.set("histograms", std::move(histograms));

  return doc;
}

}  // namespace hepex::obs
