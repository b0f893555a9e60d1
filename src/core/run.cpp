#include "core/run.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "core/advisor.hpp"
#include "obs/span_agg.hpp"
#include "trace/run_report.hpp"
#include "trace/scenario.hpp"
#include "util/error.hpp"
#include "workload/synthetic.hpp"

namespace hepex::core {

namespace {

namespace jn = util::json;
using Clock = std::chrono::steady_clock;

q::Seconds seconds_since(Clock::time_point t0) {
  return q::Seconds{std::chrono::duration<double>(Clock::now() - t0).count()};
}

/// Append a configuration point's (n, c, f, time, energy) keys.
void put_point(jn::Value& pt, const pareto::ConfigPoint& p) {
  pt.set("n", p.config.nodes);
  pt.set("c", p.config.cores);
  pt.set("f_ghz", p.config.f_hz.value() / 1e9);
  pt.set("time_s", p.time_s.value());
  pt.set("energy_j", p.energy_j.value());
}

/// Summary: `frontier_points` and the frontier rows.
void advise_one(const cfg::Scenario& s, Advisor* advisor, RunResult& r,
                jn::Value& summary) {
  std::optional<Advisor> own;
  if (advisor == nullptr) advisor = &own.emplace(Advisor::from_scenario(s));
  r.frontier = advisor->frontier();
  summary.set("frontier_points", static_cast<int>(r.frontier.size()));
  auto points = jn::Value::array();
  for (const auto& p : r.frontier) {
    auto pt = jn::Value::object();
    put_point(pt, p);
    pt.set("ucr", p.ucr);
    points.push_back(std::move(pt));
  }
  summary.set("frontier", std::move(points));
}

/// Summary: `grid_points` and one min-energy row per expanded signature
/// point, each from its own Advisor.
void advise_grid(const cfg::Scenario& s, RunResult& r, jn::Value& summary) {
  const std::vector<workload::SyntheticSpec> points = s.workload_grid->expand();
  const std::vector<workload::ProgramSpec> programs = s.workload_programs();
  auto rows = jn::Value::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    cfg::Scenario sp = s;
    sp.workload_grid.reset();
    sp.program = programs[i];
    const auto frontier = Advisor::from_scenario(sp).frontier();
    const pareto::ConfigPoint* best = pareto::min_energy(frontier);
    if (best == nullptr) continue;
    GridRow row{workload::synthetic_ref(points[i]), sp.program.name, *best};
    auto pt = jn::Value::object();
    pt.set("signature", row.signature);
    pt.set("program", row.program);
    put_point(pt, *best);
    rows.push_back(std::move(pt));
    r.grid.push_back(std::move(row));
  }
  summary.set("grid_points", static_cast<int>(points.size()));
  summary.set("grid", std::move(rows));
}

/// One measured run of the scenario's configuration, with the sinks the
/// scenario asks for.
void measure(const cfg::Scenario& s, RunResult& r,
             trace::RunReportOptions& ro) {
  trace::SimOptions opt = trace::sim_options_from_scenario(s);
  const bool want_report = !s.obs.report_path.empty();
  // A report always embeds the metrics snapshot and span statistics, so
  // asking for one attaches both (still zero-perturbation).
  obs::SpanAggregator spans;
  if (want_report || !s.obs.metrics_path.empty()) {
    r.metrics = std::make_unique<obs::Registry>();
    opt.metrics = r.metrics.get();
  }
  if (want_report) opt.spans = &spans;
  if (!s.obs.trace_path.empty()) {
    r.trace = std::make_unique<obs::TraceSink>();
    opt.trace = r.trace.get();
  }
  const auto t0 = Clock::now();
  r.measurement = trace::simulate(s.machine, s.program, s.single_config(), opt);
  r.wall = seconds_since(t0);
  ro.metrics = r.metrics.get();
  ro.spans = &spans;
  r.report = trace::build_run_report(s, *r.measurement, std::move(ro));
}

/// Summary: the ensemble's outcome counts and time/energy statistics.
void ensemble(const cfg::Scenario& s, RunResult& r, jn::Value& summary) {
  const trace::EnsembleSummary& sum =
      r.ensemble.emplace(trace::summarize_ensemble(trace::simulate_ensemble(
          s.machine, s.program, s.single_config(),
          trace::sim_options_from_scenario(s),
          static_cast<std::size_t>(s.sim.replicas), s.jobs)));
  summary.set("replicas", s.sim.replicas);
  summary.set("completed", static_cast<int>(sum.completed));
  summary.set("aborted", static_cast<int>(sum.aborted));
  summary.set("time_mean_s", sum.time_s.mean());
  summary.set("time_max_s", sum.time_s.max());
  summary.set("energy_mean_j", sum.energy_j.mean());
  summary.set("fault_time_mean_s", sum.fault_time_s.mean());
  summary.set("crashes", sum.crashes);
  summary.set("recoveries", sum.recoveries);
}

/// Summary: the configuration count and the time/energy error statistics.
/// Without `configs` the scenario's sweep runs; an unset `sweep.nodes`
/// there means the machine's model node counts that it can measure
/// directly (n <= nodes_available).
void validate_sweep(const cfg::Scenario& s,
                    std::vector<hw::ClusterConfig> configs, RunResult& r,
                    jn::Value& summary) {
  if (configs.empty()) {
    configs = s.sweep_configs();
    if (s.sweep.nodes.empty()) {
      std::erase_if(configs, [&s](const hw::ClusterConfig& c) {
        return c.nodes > s.machine.nodes_available;
      });
    }
  }
  const ValidationReport& v = r.validation.emplace(validate(
      s.machine, s.program, configs, characterization_options(s), s.jobs));
  summary.set("configs", static_cast<int>(v.rows.size()));
  summary.set("time_error_mean_pct", v.time_error.mean());
  summary.set("time_error_max_pct", v.time_error.max());
  summary.set("energy_error_mean_pct", v.energy_error.mean());
  summary.set("energy_error_max_pct", v.energy_error.max());
}

}  // namespace

RunResult run(const cfg::Scenario& s, Method method, const RunInputs& in) {
  static constexpr const char* kCommand[] = {"advise", "simulate", "validate",
                                             "faults"};
  RunResult r;
  trace::RunReportOptions ro;
  ro.command = kCommand[static_cast<int>(method)];
  if (method == Method::kFaults &&
      (!s.config || !s.faults || s.faults->empty())) {
    fail_require("a faults run needs a config and a non-empty fault plan");
  }
  if (method == Method::kSimulate ||
      (method == Method::kFaults && s.sim.replicas <= 1)) {
    measure(s, r, ro);
    return r;
  }
  const auto t0 = Clock::now();
  auto summary = jn::Value::object();
  if (method == Method::kValidate) {
    validate_sweep(s, in.configs, r, summary);
  } else if (method == Method::kFaults) {
    ensemble(s, r, summary);
  } else if (s.workload_grid) {
    advise_grid(s, r, summary);
  } else {
    advise_one(s, in.advisor, r, summary);
  }
  r.wall = seconds_since(t0);
  ro.summary = std::move(summary);
  r.report = trace::build_run_report(s, std::move(ro));
  return r;
}

}  // namespace hepex::core
