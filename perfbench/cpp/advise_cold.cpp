/// \file advise_cold.cpp
/// \brief Workload `advise_cold`: one cold `hepex advise --report` per op.
///
/// Each op loads a generated Xeon class-A scenario and runs the whole
/// advise path on a fresh Advisor: characterization, model sweep,
/// frontier, a deadline query, then the RunReport the CLI writes. The
/// program cycles LU/SP/BT/CP/LB and every op has its own sim seed, so no
/// op can reuse another's work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/scenario.hpp"
#include "core/advisor.hpp"
#include "harness.hpp"
#include "hw/machine.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "trace/run_report.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

namespace json = hepex::util::json;
using Scope = SpanRecorder::Scope;

constexpr const char* kPrograms[] = {"LU", "SP", "BT", "CP", "LB"};
constexpr int kProgramCount = 5;
/// Ops re-run at jobs=1 in the traced run: every kRecheckEvery-th op.
constexpr std::int64_t kRecheckEvery = 16;
constexpr int kSetupRepeats = 15;

/// Program of op `i` (the seed picks where the cycle starts).
const char* program_of(std::uint64_t seed, std::int64_t i) {
  const auto start = static_cast<std::int64_t>(mix64(seed) % kProgramCount);
  return kPrograms[(start + i) % kProgramCount];
}

/// A Xeon class-A scenario document for `program` at `sim_seed`.
std::string scenario_doc(const char* program, std::uint64_t sim_seed) {
  return std::string("{\"schema\":\"hepex-scenario/1\",\"name\":"
                     "\"perfbench-advise\",\"platform\":{\"preset\":\"xeon\"},"
                     "\"workload\":{\"program\":\"") +
         program + "\",\"class\":\"A\"},\"sim\":{\"seed\":" +
         std::to_string(sim_seed) + "}}";
}

/// The scenario document of op `i`. Sim seeds stay below 2^53 so the
/// JSON number carries them exactly; they differ for every op index
/// (warm-up ops use negative indices and run SP).
std::string op_document(std::uint64_t seed, std::int64_t i) {
  const std::uint64_t base =
      1 + (mix64(seed ^ 0xad01ce) % 1000000) * 10000000;
  return scenario_doc(i < 0 ? "SP" : program_of(seed, i),
                      base + static_cast<std::uint64_t>(i + 1000));
}

struct OpResult {
  double ms = 0.0;           ///< wall time of the op
  std::string digest;        ///< fingerprint of the non-host report bytes
  std::string error;         ///< empty when every check passed
  std::size_t space = 0;     ///< model evaluations in the sweep
};

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// Structural checks on the frontier and the deadline recommendation.
std::string check_advice(
    const std::vector<hepex::pareto::ConfigPoint>& fr,
    const std::vector<hepex::hw::ClusterConfig>& space, double deadline_s,
    const std::optional<hepex::core::Recommendation>& rec) {
  if (fr.empty()) return "empty frontier";
  for (std::size_t k = 0; k < fr.size(); ++k) {
    const auto& p = fr[k];
    if (!finite_positive(p.time_s.value()) ||
        !finite_positive(p.energy_j.value()) || !std::isfinite(p.ucr)) {
      return "non-finite frontier point";
    }
    if (std::find(space.begin(), space.end(), p.config) == space.end()) {
      return "frontier point outside the machine's space";
    }
    if (k > 0 && !(p.time_s.value() > fr[k - 1].time_s.value() &&
                   p.energy_j.value() < fr[k - 1].energy_j.value())) {
      return "frontier not time-ascending / energy-descending";
    }
  }
  const auto& mid = fr[fr.size() / 2];
  if (!rec) return "no recommendation for a feasible deadline";
  if (rec->point.time_s.value() > deadline_s ||
      rec->point.energy_j.value() > mid.energy_j.value()) {
    return "deadline recommendation misses the deadline or the minimum";
  }
  return {};
}

/// One cold advise, exactly as `hepex advise --report` runs it, timed from
/// the scenario text to the dumped report bytes.
OpResult advise_op(const std::string& doc, SpanRecorder* rec) {
  OpResult out;
  hepex::cfg::Scenario s;
  std::optional<hepex::core::Advisor> advisor;
  std::vector<hepex::pareto::ConfigPoint> frontier;
  std::optional<hepex::core::Recommendation> recommendation;
  hepex::obs::RunReport report;
  double deadline_s = 0.0;
  std::string bytes;

  const auto t0 = Clock::now();
  {
    Scope op(rec, "op");
    {
      Scope sp(rec, "cfg.load_scenario");
      s = hepex::cfg::load_scenario(doc, "perfbench");
    }
    {
      Scope sp(rec, "core.advisor");
      advisor.emplace(hepex::core::Advisor::from_scenario(s));
    }
    {
      Scope sp(rec, "model.characterize");
      advisor->characterization();
    }
    {
      Scope sp(rec, "core.explore");
      out.space = advisor->explore().size();
    }
    {
      Scope sp(rec, "pareto.frontier");
      frontier = advisor->frontier();
    }
    {
      Scope sp(rec, "core.for_deadline");
      deadline_s = frontier.empty()
                       ? 0.0
                       : frontier[frontier.size() / 2].time_s.value();
      recommendation = advisor->for_deadline(hepex::q::Seconds{deadline_s});
    }
    {
      Scope sp(rec, "obs.report");
      hepex::trace::RunReportOptions ro;
      ro.command = "advise";
      ro.host_wall_s = seconds_between(t0, Clock::now());
      ro.summary = frontier_summary(frontier);
      report = hepex::trace::build_run_report(s, ro);
      Scope dump(rec, "util.json.dump");
      bytes = json::dump_compact(report.to_json_value());
    }
  }
  out.ms = ms_between(t0, Clock::now());

  out.error = check_advice(frontier,
                           hepex::hw::model_config_space(advisor->machine()),
                           deadline_s, recommendation);
  if (out.error.empty() && (bytes.empty() || !report.has_host)) {
    out.error = "report not built";
  }
  report.has_host = false;
  report.host_profile.clear();
  out.digest = hepex::util::fingerprint(
      json::dump_compact(report.to_json_value()));
  return out;
}

/// Simulated events in one characterization of `doc` (counted at jobs=1
/// through the registry the characterization's sim options carry).
double characterization_events(const std::string& doc, int jobs) {
  const auto s = hepex::cfg::load_scenario(doc, "perfbench");
  hepex::obs::Registry reg;
  hepex::model::CharacterizationOptions opt;
  opt.sim.metrics = &reg;
  hepex::par::set_default_jobs(1);
  auto advisor = hepex::core::Advisor::from_scenario(s, opt);
  advisor.characterization();
  hepex::par::set_default_jobs(jobs);
  const auto* c = reg.find_counter("sim.events_processed");
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

std::string data_path(const Args& a) {
  return a.expected_override.empty() ? a.data_dir + "/advise_cold.digests"
                                     : a.expected_override;
}

}  // namespace

Result run_advise_cold(const Args& args) {
  Result r;
  if (!args.write_expected.empty()) {
    std::vector<std::string> lines;
    for (int i = 0; i < args.write_count; ++i) {
      const OpResult o = advise_op(op_document(args.seed, i), nullptr);
      if (!o.error.empty()) throw std::runtime_error(o.error);
      lines.push_back(o.digest);
    }
    write_data_lines(args.write_expected,
                     "advise_cold: data line i (from 0) is the fingerprint "
                     "of op i's non-host RunReport bytes\nseed " +
                         std::to_string(args.seed),
                     lines);
    return r;
  }
  std::vector<std::string> expected;
  if (args.seed == args.default_seed) {
    expected = read_data_lines(data_path(args));
  }

  // Set-up: time to the first answer (pool threads, allocator, first
  // cold advise), repeated on distinct warm-up scenarios.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    const OpResult o = advise_op(op_document(args.seed, -1 - k), nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (!o.error.empty()) throw std::runtime_error("warm-up: " + o.error);
  }

  SpanRecorder spans;
  std::vector<double> lat, lat_traced, lat_plain, space;
  std::vector<const char*> program;
  std::vector<std::pair<double, double>> lat_at;  ///< (op start, ms)
  const auto start = Clock::now();
  std::int64_t i = 0;
  while (seconds_between(start, Clock::now()) < args.seconds) {
    const bool traced = args.trace && i % 2 == 0;
    const std::string doc = op_document(args.seed, i);
    spans.begin_op(i);
    const OpResult o = advise_op(doc, traced ? &spans : nullptr);
    std::string why = o.error;
    if (why.empty() && static_cast<std::size_t>(i) < expected.size() &&
        o.digest != expected[static_cast<std::size_t>(i)]) {
      why = "report digest differs from the committed one";
    }
    if (why.empty() && args.trace && i % kRecheckEvery == 0) {
      hepex::par::set_default_jobs(1);
      const OpResult serial = advise_op(doc, nullptr);
      hepex::par::set_default_jobs(args.jobs);
      if (serial.digest != o.digest) why = "jobs=1 rerun is not bit-identical";
    }
    r.record(why.empty(), why);
    lat.push_back(o.ms);
    lat_at.emplace_back(seconds_between(start, Clock::now()) - o.ms / 1e3,
                        o.ms);
    (traced ? lat_traced : lat_plain).push_back(o.ms);
    space.push_back(static_cast<double>(o.space));
    program.push_back(program_of(args.seed, i));
    ++i;
  }
  const double elapsed = seconds_between(start, Clock::now());
  const double rss = peak_rss_mb();
  write_samples_csv(args.work_dir + "/advise_cold.ops.csv", lat_at);
  std::fprintf(stderr, "perfbench: advise_cold %lld ops in %.3f s\n",
               static_cast<long long>(i), elapsed);

  if (!args.trace) {
    // Events per program: the characterization's event count does not
    // depend on the sim seed, so one count per program serves every op.
    std::map<std::string, double> events;
    for (const char* p : kPrograms) {
      events[p] = characterization_events(scenario_doc(p, 1), args.jobs);
    }
    // The rates of one pass over the five programs, each at its median op
    // time. A burst of host contention stretches a few seconds of ops by
    // up to 1.6x; a mean (even per window) follows it, a median does not.
    std::map<std::string, std::vector<double>> op_s;
    for (std::size_t k = 0; k < lat.size(); ++k) {
      op_s[program[k]].push_back(lat[k] / 1e3);
    }
    double cycle_events = 0.0;
    double cycle_s = 0.0;
    for (const auto& [p, s] : op_s) {
      cycle_events += events[p];
      cycle_s += median(s);
    }
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["p50_ms"] = percentile(lat, 0.50);
    r.metrics["events_per_s"] = cycle_events / cycle_s;
    r.metrics["max_rps"] = static_cast<double>(op_s.size()) / cycle_s;
    r.metrics["rss_mb"] = rss;
    return r;
  }

  r.metrics["cfg.load_scenario_ms"] = spans.median_ms("cfg.load_scenario");
  r.metrics["core.advisor_ms"] = spans.median_ms("core.advisor");
  r.metrics["model.characterize_ms"] = spans.median_ms("model.characterize");
  r.metrics["core.explore_ms"] = spans.median_ms("core.explore");
  r.metrics["model.predict.calls"] = median(space);
  r.metrics["pareto.frontier_ms"] = spans.median_ms("pareto.frontier");
  r.metrics["core.for_deadline_ms"] = spans.median_ms("core.for_deadline");
  r.metrics["obs.report_ms"] = spans.median_ms("obs.report");
  r.metrics["util.json.dump_ms"] = spans.median_ms("util.json.dump");
  r.metrics["bench.coverage_pct"] = spans.coverage_pct("op");
  r.metrics["bench.p90_ms"] = percentile(lat, 0.90);
  r.metrics["obs.overhead_pct"] = overhead_pct(lat_traced, lat_plain);
  if (!spans.write_jsonl(args.work_dir + "/advise_cold.spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write the span dump\n");
  }
  return r;
}

}  // namespace perfbench
