/// \file simulate_1k.cpp
/// \brief Workload `simulate_1k`: one 1000-node simulation per op.
///
/// Each op loads the scale_1k scenario (SP, class S, 1000 nodes, c=2,
/// 4 iterations; the same document as examples/scenarios/scale_1k.json)
/// with its own sim seed and runs `trace::simulate` on it. There is no
/// characterization, model or service work: the sharded calendar, the
/// arena and the execution engine do everything.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/scenario.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"
#include "trace/scenario.hpp"

namespace perfbench {
namespace {

using Scope = SpanRecorder::Scope;

constexpr int kSetupRepeats = 7;
/// Untraced runs re-simulate every kRecheckEvery-th op with a registry
/// attached to check the event count (at most kMaxRechecks of them).
constexpr std::size_t kRecheckEvery = 16;
constexpr std::size_t kMaxRechecks = 8;

std::string op_document(std::uint64_t seed, std::int64_t i) {
  const std::uint64_t base =
      1 + (mix64(seed ^ 0x51a1c) % 1000000) * 10000000;
  return "{\"schema\":\"hepex-scenario/1\",\"name\":\"scale-1k\","
         "\"platform\":{\"preset\":\"xeon\",\"nodes_available\":1000},"
         "\"workload\":{\"program\":\"SP\",\"class\":\"S\",\"iterations\":4},"
         "\"config\":{\"n\":1000,\"c\":2,\"f\":\"1.8GHz\"},"
         "\"sim\":{\"seed\":" +
         std::to_string(base + static_cast<std::uint64_t>(i + 1000)) + "}}";
}

/// Counters the engine exports when a registry is attached.
struct SimCounts {
  double events = 0.0;
  double peak_pending = 0.0;
  double arena_blocks = 0.0;
};

struct OpResult {
  double ms = 0.0;
  double sim_ms = 0.0;
  double time_s = 0.0;    ///< simulated execution time T
  double energy_j = 0.0;  ///< simulated energy E
  bool completed = false;
  SimCounts counts;       ///< filled only when a registry was attached
};

double counter(const hepex::obs::Registry& reg, const char* name) {
  const auto* c = reg.find_counter(name);
  return c == nullptr ? -1.0 : static_cast<double>(c->value());
}

OpResult simulate_op(const std::string& doc, SpanRecorder* rec,
                     bool with_registry) {
  OpResult out;
  hepex::obs::Registry reg;
  hepex::trace::Measurement meas;
  const auto t0 = Clock::now();
  {
    Scope op(rec, "op");
    hepex::cfg::Scenario s;
    {
      Scope sp(rec, "cfg.load_scenario");
      s = hepex::cfg::load_scenario(doc, "perfbench");
    }
    auto opt = hepex::trace::sim_options_from_scenario(s);
    if (with_registry) opt.metrics = &reg;
    const auto ts = Clock::now();
    {
      Scope sp(rec, "trace.simulate");
      meas = hepex::trace::simulate(s.machine, s.program, s.single_config(),
                                    opt);
    }
    out.sim_ms = ms_between(ts, Clock::now());
  }
  out.ms = ms_between(t0, Clock::now());
  out.time_s = meas.time_s.value();
  out.energy_j = meas.energy.total().value();
  out.completed = meas.completed();
  if (with_registry) {
    out.counts.events = counter(reg, "sim.events_processed");
    out.counts.peak_pending = counter(reg, "sim.calendar.peak_pending");
    out.counts.arena_blocks = counter(reg, "sim.arena.blocks");
  }
  return out;
}

std::string te_line(const OpResult& o) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%a %a", o.time_s, o.energy_j);
  return buf;
}

std::string check(const OpResult& o, double events,
                  const std::vector<std::string>& expected, std::size_t i) {
  if (!o.completed || !std::isfinite(o.time_s) || !(o.time_s > 0.0) ||
      !std::isfinite(o.energy_j) || !(o.energy_j > 0.0)) {
    return "simulation did not complete with finite positive T and E";
  }
  if (o.counts.events != 0.0 && o.counts.events != events) {
    return "event count " + std::to_string(o.counts.events) +
           " differs from the fixed " + std::to_string(events);
  }
  if (i + 1 < expected.size() && te_line(o) != expected[i + 1]) {
    return "T/E differ from the committed values";
  }
  return {};
}

std::string data_path(const Args& a) {
  return a.expected_override.empty() ? a.data_dir + "/simulate_1k.values"
                                     : a.expected_override;
}

}  // namespace

Result run_simulate_1k(const Args& args) {
  Result r;
  if (!args.write_expected.empty()) {
    std::vector<std::string> lines;
    for (int i = 0; i < args.write_count; ++i) {
      const OpResult o = simulate_op(op_document(args.seed, i), nullptr, true);
      if (lines.empty()) {
        lines.push_back(
            std::to_string(static_cast<long long>(o.counts.events)));
      }
      lines.push_back(te_line(o));
    }
    write_data_lines(args.write_expected,
                     "simulate_1k: the first data line is the fixed event "
                     "count of one op;\nthe next ones are op i's T and E as "
                     "hex floats, i = 0, 1, ...\nseed " +
                         std::to_string(args.seed),
                     lines);
    return r;
  }
  // The event count is fixed for every seed; the committed T/E values
  // only for the default seed.
  std::vector<std::string> expected = read_data_lines(data_path(args));
  if (expected.empty()) throw std::runtime_error("empty " + data_path(args));
  const double events = std::stod(expected[0]);
  if (args.seed != args.default_seed) expected.resize(1);

  // Set-up: scenario load plus one untimed warm-up simulation (first
  // touch of the arena and calendar), repeated.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    const OpResult o = simulate_op(op_document(args.seed, -1 - k), nullptr,
                                   false);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (!check(o, events, {}, 0).empty()) {
      throw std::runtime_error("warm-up simulation failed");
    }
  }

  SpanRecorder spans;
  std::vector<OpResult> ops;
  std::vector<double> lat, lat_traced, lat_plain;
  std::vector<std::pair<double, double>> lat_at;  ///< (op start, ms)
  const auto start = Clock::now();
  std::int64_t i = 0;
  while (seconds_between(start, Clock::now()) < args.seconds) {
    const bool traced = args.trace && i % 2 == 0;
    spans.begin_op(i);
    OpResult o = simulate_op(op_document(args.seed, i),
                             traced ? &spans : nullptr, traced);
    const std::string why =
        check(o, events, expected, static_cast<std::size_t>(i));
    r.record(why.empty(), why);
    lat.push_back(o.ms);
    lat_at.emplace_back(seconds_between(start, Clock::now()) - o.ms / 1e3,
                        o.ms);
    (traced ? lat_traced : lat_plain).push_back(o.ms);
    ops.push_back(o);
    ++i;
  }
  const double elapsed = seconds_between(start, Clock::now());
  const double rss = peak_rss_mb();
  write_samples_csv(args.work_dir + "/simulate_1k.ops.csv", lat_at);
  std::fprintf(stderr, "perfbench: simulate_1k %lld ops in %.3f s\n",
               static_cast<long long>(i), elapsed);

  if (!args.trace) {
    // Untimed: re-run a sample with the registry attached (each re-run is
    // one more checked op); it must reproduce T/E bit-for-bit and process
    // the fixed event count.
    for (std::size_t k = 0; k < ops.size() && k / kRecheckEvery < kMaxRechecks;
         k += kRecheckEvery) {
      const OpResult again = simulate_op(
          op_document(args.seed, static_cast<std::int64_t>(k)), nullptr, true);
      r.record(
          te_line(again) == te_line(ops[k]) && again.counts.events == events,
          "registry re-run differs in T/E or event count");
    }
    std::vector<RateSample> event_rate, op_rate;
    for (const auto& [t, ms] : lat_at) {
      event_rate.push_back({t, events, ms / 1e3});
      op_rate.push_back({t, 1.0, ms / 1e3});
    }
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["p50_ms"] = percentile(lat, 0.50);
    r.metrics["events_per_s"] = median_window_rate(event_rate, kRateWindowS);
    r.metrics["max_rps"] = median_window_rate(op_rate, kRateWindowS);
    r.metrics["rss_mb"] = rss;
    return r;
  }

  // Traced ops carry exact counts; they must repeat on every op.
  std::vector<double> ns_per_event;
  const OpResult* first = nullptr;
  for (const OpResult& o : ops) {
    if (o.counts.events == 0.0) continue;
    if (first == nullptr) first = &o;
    r.record(o.counts.peak_pending == first->counts.peak_pending &&
                 o.counts.arena_blocks == first->counts.arena_blocks,
             "sim counters differ between ops");
    ns_per_event.push_back(o.sim_ms * 1e6 / o.counts.events);
  }
  if (first == nullptr) throw std::runtime_error("no traced op completed");
  r.metrics["cfg.load_scenario_ms"] = spans.median_ms("cfg.load_scenario");
  r.metrics["trace.simulate_ms"] = spans.median_ms("trace.simulate");
  r.metrics["sim.ns_per_event"] = median(ns_per_event);
  r.metrics["sim.events"] = first->counts.events;
  r.metrics["sim.calendar.peak_pending"] = first->counts.peak_pending;
  r.metrics["sim.arena.blocks"] = first->counts.arena_blocks;
  r.metrics["bench.coverage_pct"] = spans.coverage_pct("op");
  r.metrics["bench.p90_ms"] = percentile(lat, 0.90);
  r.metrics["obs.overhead_pct"] = overhead_pct(lat_traced, lat_plain);
  if (!spans.write_jsonl(args.work_dir + "/simulate_1k.spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write the span dump\n");
  }
  return r;
}

}  // namespace perfbench
