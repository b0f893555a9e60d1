#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The order and units here are the ones BENCHMARK.json lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"p50_ms", "ms"},  {"events_per_s", "1/s"},
    {"max_rps", "1/s"},    {"rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"cfg.load_scenario_ms", "ms"},
    {"core.advisor_ms", "ms"},
    {"model.characterize_ms", "ms"},
    {"core.explore_ms", "ms"},
    {"model.predict.calls", "count"},
    {"pareto.frontier_ms", "ms"},
    {"core.for_deadline_ms", "ms"},
    {"obs.report_ms", "ms"},
    {"util.json.dump_ms", "ms"},
    {"trace.simulate_ms", "ms"},
    {"sim.ns_per_event", "ns"},
    {"sim.events", "count"},
    {"sim.calendar.peak_pending", "count"},
    {"sim.arena.blocks", "count"},
    {"svc.ping_rtt_ms", "ms"},
    {"svc.advise_rtt_ms", "ms"},
    {"svc.advise_rtt_p99_ms", "ms"},
    {"svc.simulate_rtt_ms", "ms"},
    {"svc.simulate_rtt_p99_ms", "ms"},
    {"svc.library_advise_ms", "ms"},
    {"svc.library_simulate_ms", "ms"},
    {"svc.handoff_ms", "ms"},
    {"svc.closed_loop_p99_ms", "ms"},
    {"svc.open_loop_p50_ms", "ms"},
    {"svc.open_loop_p99_ms", "ms"},
    {"svc.queue.high_water", "count"},
    {"svc.advisor_cache.hit_ratio", "ratio"},
    {"gen.lateness_p99_ms", "ms"},
    {"obs.overhead_pct", "%"},
    {"bench.coverage_pct", "%"},
    {"bench.p90_ms", "ms"},
};

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median_window_rate(const std::vector<RateSample>& samples,
                          double window_s) {
  std::map<long long, std::pair<double, double>> windows;  // work, seconds
  for (const RateSample& r : samples) {
    auto& w = windows[static_cast<long long>(std::floor(r.start_s / window_s))];
    w.first += r.work;
    w.second += r.seconds;
  }
  std::vector<double> rates;
  for (const auto& [k, w] : windows) {
    if (w.second > 0.0) rates.push_back(w.first / w.second);
  }
  return median(rates);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --- spans ----------------------------------------------------------------

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
  if (rec_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  s.op = rec_->op_;
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(s);
  rec_->open_.push_back(index_);
  // Read the clock last so the bookkeeping above is not inside the span.
  rec_->spans_[static_cast<std::size_t>(index_)].start_ns =
      ns_since(rec_->epoch_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[static_cast<std::size_t>(index_)].end_ns =
      ns_since(rec_->epoch_);
  rec_->open_.pop_back();
}

std::map<std::string, std::vector<double>> SpanRecorder::self_ms_by_op()
    const {
  // Children of one parent are recorded from one thread and never
  // overlap, so their summed durations are the covered part.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::map<std::int64_t, double>> per_op;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    per_op[s.name][s.op] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, ops] : per_op) {
    auto& series = out[name];
    for (const auto& [op, ms] : ops) series.push_back(ms);
  }
  return out;
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double SpanRecorder::coverage_pct(const std::string& root) const {
  const double root_ms = median_ms(root);
  if (root_ms <= 0.0) return 0.0;
  double layers_ms = 0.0;
  for (const auto& [name, series] : self_ms_by_op()) {
    if (name != root) layers_ms += median(series);
  }
  return 100.0 * layers_ms / root_ms;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(os);
}

// --- result ---------------------------------------------------------------

void Result::record(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (failed <= 5) {
    std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                 static_cast<unsigned long long>(attempted), why.c_str());
  }
}

void print_result(const Result& r, bool trace) {
  namespace json = hepex::util::json;
  bool complete = true;
  auto metrics = json::Value::object();
  auto emit = [&](const MetricDef& d) {
    const auto it = r.metrics.find(d.name);
    double v = 0.0;
    if (it != r.metrics.end()) {
      v = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   d.name);
      complete = false;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", d.name);
      complete = false;
      v = 0.0;
    }
    auto m = json::Value::object();
    m.set("value", v);
    m.set("unit", d.unit);
    metrics.set(d.name, std::move(m));
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  for (const auto& [name, value] : r.metrics) {
    std::fprintf(stderr, "perfbench: %-28s %.6g\n", name.c_str(), value);
  }
  auto out = json::Value::object();
  out.set("correct", r.correct && complete);
  out.set("attempted", static_cast<double>(r.attempted));
  out.set("failed", static_cast<double>(r.failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", json::dump_compact(out).c_str());
  std::fflush(stdout);
}

hepex::util::json::Value frontier_summary(
    const std::vector<hepex::pareto::ConfigPoint>& frontier) {
  namespace json = hepex::util::json;
  auto summary = json::Value::object();
  summary.set("frontier_points", static_cast<int>(frontier.size()));
  auto points = json::Value::array();
  for (const auto& p : frontier) {
    auto pt = json::Value::object();
    pt.set("n", p.config.nodes);
    pt.set("c", p.config.cores);
    pt.set("f_ghz", p.config.f_hz.value() / 1e9);
    pt.set("time_s", p.time_s.value());
    pt.set("energy_j", p.energy_j.value());
    pt.set("ucr", p.ucr);
    points.push_back(std::move(pt));
  }
  summary.set("frontier", std::move(points));
  return summary;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream is("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0.0;
}

bool write_samples_csv(const std::string& path,
                       const std::vector<std::pair<double, double>>& samples) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [t, v] : samples) std::fprintf(f, "%.6f,%.6f\n", t, v);
  return std::fclose(f) == 0;
}

std::vector<std::string> read_data_lines(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line);
  }
  return out;
}

void write_data_lines(const std::string& path, const std::string& header,
                      const std::vector<std::string>& lines) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::istringstream hs(header);
  std::string h;
  while (std::getline(hs, h)) os << "# " << h << "\n";
  for (const auto& l : lines) os << l << "\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
