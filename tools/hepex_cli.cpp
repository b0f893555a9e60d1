// hepex — command-line front end to the HEPEX library.
//
// Every command accepts `--scenario file.json` — a declarative Scenario
// document (docs/scenarios.md) that names the platform, workload, sweep
// space, fault plan, simulator options and observability outputs in one
// artifact. The remaining flags are overrides layered on top; precedence
// is CLI flag > scenario field > registry default.
//
// Usage:
//   hepex advise      --scenario s.json  (or --machine xeon --program SP)
//   hepex frontier    --machine xeon|arm --program SP [--class A]
//   hepex recommend   --machine xeon --program SP --deadline 60
//   hepex recommend   --machine xeon --program SP --budget 5000
//   hepex simulate    --machine xeon --program SP --n 4 --c 8 --f 1.8
//   hepex validate    --machine arm  --program CP [--class A]
//   hepex netchar     --machine arm
//   hepex report      --machine xeon --program SP
//   hepex whatif      --machine xeon --program SP --membw 2 --n 1 --c 8 --f 1.8
//   hepex characterize --machine xeon --program SP --out ch.json
//   hepex predict     --from ch.json --n 8 --c 8 --f 1.8 [--class A] [--iters 60]
//   hepex faults      --machine xeon --program SP --mtbf 86400
//   hepex faults      --machine xeon --program SP --n 4 --c 8 --f 1.8
//                     --mtbf 3600 [--crash-node 1 --crash-at 5] [--mode abort]
//                     [--replicas 32]
//   hepex scenario validate --scenario s.json
//   hepex scenario print [--scenario s.json] [--machine arm ...] [--out s.json]
//
// Observability flags (any command; see docs/observability.md):
//   --log-level off|error|warn|info|debug|trace   structured logs on stderr
//   --profile                                     host-time report on exit
//   --jobs N              worker threads for sweeps/ensembles (0 = all
//                         cores; results are identical at any N — see
//                         docs/performance.md)
// simulate additionally accepts:
//   --trace=out.json      Chrome/Perfetto timeline of the simulated run
//   --metrics=out.json    metrics-registry snapshot
// Running `hepex --trace=out.json` with no command simulates the
// quickstart workload (SP on the Xeon cluster) and traces it.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage/configuration error.

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/scenario.hpp"
#include "core/hepex.hpp"
#include "core/report.hpp"
#include "core/run.hpp"
#include "fault/plan.hpp"
#include "hw/presets.hpp"
#include "model/resilience.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "par/thread_pool.hpp"
#include "trace/run_report.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/quantity.hpp"
#include "util/table.hpp"
#include "workload/programs.hpp"
#include "workload/source.hpp"
#include "workload/trace_format.hpp"

using namespace hepex;

namespace {

/// Reject flags this command does not understand. Observability flags,
/// --jobs and --scenario are accepted everywhere.
void require_flags(const util::CliArgs& args,
                   std::vector<std::string> known) {
  known.push_back("log-level");
  known.push_back("profile");
  known.push_back("jobs");
  known.push_back("scenario");
  args.require_known(known);
}

/// Build the run's Scenario: `--scenario FILE` when given, the default
/// scenario otherwise, with the remaining flags layered on top
/// (precedence: CLI flag > scenario field > registry default). Also
/// applies the scenario's obs/jobs settings for flags the user did not
/// pass on the command line.
cfg::Scenario scenario_from(const util::CliArgs& args) {
  cfg::Scenario s;
  if (const auto path = args.get("scenario")) {
    s = cfg::load_scenario_file(*path);
  } else {
    s = cfg::default_scenario();
  }
  if (const auto m = args.get("machine")) {
    s.platform_preset = *m;
    s.machine = hw::machine_by_name(*m);
  }
  if (args.has("program") || args.has("class")) {
    s.program_name = args.get_or("program", s.program_name);
    if (const auto cls = args.get("class")) {
      s.input = workload::input_class_from_string(*cls);
    }
    s.program = workload::program_by_name(s.program_name, s.input);
  }
  if (args.has("n") || args.has("c") || args.has("f")) {
    hw::ClusterConfig run = s.config ? *s.config : s.single_config();
    run.nodes = args.get_int_or("n", run.nodes);
    run.cores = args.get_int_or("c", run.cores);
    // --f takes a unit suffix ("1.8GHz", "1800MHz"); a bare number is GHz.
    if (const auto f = args.get("f")) run.f_hz = util::parse_frequency(*f);
    s.config = run;
  }
  if (const auto jobs = args.get("jobs")) s.jobs = util::parse_jobs(*jobs);
  if (const auto lvl = args.get("log-level")) s.obs.log_level = *lvl;
  if (const auto t = args.get("trace")) s.obs.trace_path = *t;
  if (const auto mp = args.get("metrics")) s.obs.metrics_path = *mp;
  if (const auto rp = args.get("report")) s.obs.report_path = *rp;
  if (args.has("profile")) s.obs.profile = true;
  if (args.has("replicas")) {
    s.sim.replicas = args.get_int_or("replicas", s.sim.replicas);
  }
  s.validate();

  // Scenario-supplied process settings (the matching flags were applied
  // in main(); only fill in what the command line left unset).
  if (!args.has("jobs") && s.jobs != 0) par::set_default_jobs(s.jobs);
  if (!args.has("log-level") && !s.obs.log_level.empty()) {
    obs::Log::set_level(obs::log_level_from_string(s.obs.log_level));
  }
  if (!args.has("profile") && s.obs.profile) {
    obs::Profiler::instance().set_enabled(true);
  }
  return s;
}

hw::ClusterConfig config_from(const util::CliArgs& args,
                              const hw::MachineSpec& m) {
  hw::ClusterConfig run;
  run.nodes = args.get_int_or("n", 1);
  run.cores = args.get_int_or("c", m.node.cores);
  // --f takes a unit suffix ("1.8GHz", "1800MHz"); a bare number is GHz.
  const auto f = args.get("f");
  run.f_hz = f ? util::parse_frequency(*f)
               : q::Hertz{(m.node.dvfs.f_max().value() / 1e9) * 1e9};
  return run;
}

/// `--name` parsed as a duration with unit suffix; bare numbers are
/// seconds, so `--mtbf 3600` and `--mtbf 1h` are the same plan.
q::Seconds duration_or(const util::CliArgs& args, const std::string& name,
                       double fallback_s) {
  const auto v = args.get(name);
  return v ? util::parse_duration(*v) : q::Seconds{fallback_s};
}

/// Write the files the scenario's `obs` section names: the report (with
/// the run's host wall time), the trace and the metrics snapshot. An
/// unwritable trace or metrics path is a usage error (exit 2).
void write_outputs(const cfg::Scenario& s, core::RunResult& res) {
  if (!s.obs.report_path.empty()) {
    trace::stamp_host(res.report, res.wall.value(), res.metrics.get());
    res.report.save_file(s.obs.report_path);
    std::printf("report written: %s\n", s.obs.report_path.c_str());
  }
  if (res.trace) {
    if (!res.trace->write_file(s.obs.trace_path)) {
      fail_require("cannot write trace to " + s.obs.trace_path);
    }
    std::printf("trace written: %s (%zu events; open in ui.perfetto.dev "
                "or chrome://tracing)\n",
                s.obs.trace_path.c_str(), res.trace->size());
  }
  if (res.metrics && !s.obs.metrics_path.empty()) {
    std::ofstream out(s.obs.metrics_path);
    if (!(out << res.metrics->to_json())) {
      fail_require("cannot write metrics to " + s.obs.metrics_path);
    }
    std::printf("metrics written: %s\n", s.obs.metrics_path.c_str());
  }
}

void print_points(const std::vector<pareto::ConfigPoint>& points) {
  util::Table t({"(n,c,f)", "time [s]", "energy [kJ]", "UCR"});
  for (const auto& p : points) {
    t.add_row({util::fmt_config(p.config.nodes, p.config.cores,
                                p.config.f_hz.value() / 1e9),
               util::fmt(p.time_s.value(), 2),
               util::fmt(p.energy_j.value() / 1e3, 3),
               util::fmt(p.ucr, 2)});
  }
  std::printf("%s", t.to_text().c_str());
}

/// `hepex advise` over a synthetic grid: one min-energy row per expanded
/// signature point, plus the grid-wide optimum.
int advise_grid(const util::CliArgs& args, const cfg::Scenario& s) {
  if (args.has("deadline") || args.has("budget")) {
    fail_require(
        "--deadline/--budget apply to a single program, not a synthetic "
        "grid (drop workload.grid or the flag)");
  }
  std::printf("advice for synthetic grid (%zu points, class %s) on %s:\n",
              s.workload_grid->expand().size(),
              workload::to_string(s.input).c_str(), s.machine.name.c_str());
  core::RunResult res = core::run(s, core::Method::kAdvise);
  util::Table t({"signature", "program", "min-energy (n,c,f)", "time [s]",
                 "energy [kJ]"});
  const core::GridRow* best = nullptr;
  for (const auto& row : res.grid) {
    const pareto::ConfigPoint& p = row.min_energy;
    t.add_row({row.signature, row.program,
               util::fmt_config(p.config.nodes, p.config.cores,
                                p.config.f_hz.value() / 1e9),
               util::fmt(p.time_s.value(), 2),
               util::fmt(p.energy_j.value() / 1e3, 3)});
    if (best == nullptr || p.energy_j < best->min_energy.energy_j) best = &row;
  }
  std::printf("%s", t.to_text().c_str());
  if (best != nullptr) {
    const pareto::ConfigPoint& p = best->min_energy;
    std::printf("grid minimum energy: %s (%s) at %s (%.2f s, %.3f kJ)\n",
                best->program.c_str(), best->signature.c_str(),
                util::fmt_config(p.config.nodes, p.config.cores,
                                 p.config.f_hz.value() / 1e9)
                    .c_str(),
                p.time_s.value(), p.energy_j.value() / 1e3);
  }
  write_outputs(s, res);
  return 0;
}

int cmd_advise(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "deadline", "budget",
                       "report"});
  const cfg::Scenario s = scenario_from(args);
  if (s.workload_grid) return advise_grid(args, s);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  std::printf("advice for %s (class %s) on %s:\n", s.program.name.c_str(),
              workload::to_string(s.input).c_str(), s.machine.name.c_str());
  core::RunResult res = core::run(s, core::Method::kAdvise, {&advisor, {}});
  print_points(res.frontier);
  if (const pareto::ConfigPoint* best = pareto::min_energy(res.frontier)) {
    std::printf("minimum energy: %s (%.2f s, %.3f kJ)\n",
                util::fmt_config(best->config.nodes, best->config.cores,
                                 best->config.f_hz.value() / 1e9)
                    .c_str(),
                best->time_s.value(), best->energy_j.value() / 1e3);
  }
  write_outputs(s, res);
  if (args.has("deadline")) {
    const q::Seconds deadline = duration_or(args, "deadline", 0.0);
    if (const auto rec = advisor.for_deadline(deadline)) {
      std::printf("deadline %.1f s: %s (%.2f s, %.3f kJ)\n",
                  deadline.value(),
                  util::fmt_config(rec->point.config.nodes,
                                   rec->point.config.cores,
                                   rec->point.config.f_hz.value() / 1e9)
                      .c_str(),
                  rec->point.time_s.value(),
                  rec->point.energy_j.value() / 1e3);
    } else {
      std::printf("deadline %.1f s: no configuration meets it\n",
                  deadline.value());
    }
  }
  if (const auto braw = args.get("budget")) {
    const q::Joules budget = util::parse_energy(*braw);
    if (const auto rec = advisor.for_budget(budget)) {
      std::printf("budget %.0f J: %s (%.2f s, %.3f kJ)\n", budget.value(),
                  util::fmt_config(rec->point.config.nodes,
                                   rec->point.config.cores,
                                   rec->point.config.f_hz.value() / 1e9)
                      .c_str(),
                  rec->point.time_s.value(),
                  rec->point.energy_j.value() / 1e3);
    } else {
      std::printf("budget %.0f J: no configuration fits it\n",
                  budget.value());
    }
  }
  return 0;
}

int cmd_scenario(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "n", "c", "f",
                       "replicas", "out"});
  const std::string& sub = args.subcommand();
  if (sub == "validate") {
    const auto path = args.get("scenario");
    if (!path) {
      fail_require("scenario validate needs --scenario FILE");
    }
    const cfg::Scenario s = cfg::load_scenario_file(*path);
    std::printf("%s: OK — %s (class %s) on %s; %zu sweep configs%s%s\n",
                path->c_str(), s.program_name.c_str(),
                workload::to_string(s.input).c_str(), s.machine.name.c_str(),
                s.sweep_configs().size(),
                s.config ? "; single config set" : "",
                s.faults ? "; fault plan" : "");
    return 0;
  }
  if (sub == "print") {
    const cfg::Scenario s = scenario_from(args);
    if (const auto out = args.get("out")) {
      cfg::save_scenario_file(s, *out);
      std::printf("scenario written: %s\n", out->c_str());
    } else {
      std::printf("%s", cfg::save_scenario(s).c_str());
    }
    return 0;
  }
  fail_require("scenario needs a subcommand: validate | print");
}

int cmd_frontier(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class"});
  const cfg::Scenario s = scenario_from(args);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  print_points(advisor.frontier());
  return 0;
}

int cmd_recommend(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "deadline", "budget"});
  const cfg::Scenario s = scenario_from(args);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  if (args.has("deadline")) {
    const q::Seconds deadline = duration_or(args, "deadline", 0.0);
    if (const auto rec = advisor.for_deadline(deadline)) {
      std::printf("deadline %.1f s -> %s: %.2f s, %.3f kJ, UCR %.2f "
                  "(slack %.1f s)\n",
                  deadline.value(),
                  util::fmt_config(rec->point.config.nodes,
                                   rec->point.config.cores,
                                   rec->point.config.f_hz.value() / 1e9)
                      .c_str(),
                  rec->point.time_s.value(),
                  rec->point.energy_j.value() / 1e3,
                  rec->point.ucr, rec->slack);
      return 0;
    }
    std::printf("no configuration meets a %.1f s deadline\n",
                deadline.value());
    return 1;
  }
  if (args.has("budget")) {
    const auto braw = args.get("budget");
    const q::Joules budget = braw ? util::parse_energy(*braw) : q::Joules{};
    if (const auto rec = advisor.for_budget(budget)) {
      std::printf("budget %.0f J -> %s: %.2f s, %.3f kJ, UCR %.2f\n",
                  budget.value(),
                  util::fmt_config(rec->point.config.nodes,
                                   rec->point.config.cores,
                                   rec->point.config.f_hz.value() / 1e9)
                      .c_str(),
                  rec->point.time_s.value(),
                  rec->point.energy_j.value() / 1e3,
                  rec->point.ucr);
      return 0;
    }
    std::printf("no configuration fits a %.0f J budget\n", budget.value());
    return 1;
  }
  fail_require("recommend needs --deadline or --budget");
}

/// Execute the scenario's single configuration and print the measurement
/// — the shared back half of `simulate` and `trace replay`. `command`
/// names the invocation in any RunReport written.
int run_simulation(const cfg::Scenario& s, const char* command) {
  core::RunResult res = core::run(s, core::Method::kSimulate);
  res.report.command = command;
  write_outputs(s, res);
  const trace::Measurement& meas = *res.measurement;
  const hw::ClusterConfig run = s.single_config();
  std::printf("measured %s on %s at %s:\n", s.program.name.c_str(),
              s.machine.name.c_str(),
              util::fmt_config(run.nodes, run.cores,
                               run.f_hz.value() / 1e9).c_str());
  std::printf("  time   : %.2f s\n", meas.time_s.value());
  std::printf("  energy : %.3f kJ (cpu %.2f + mem %.2f + net %.2f + idle "
              "%.2f)\n",
              meas.energy.total().value() / 1e3,
              (meas.energy.cpu_active_j + meas.energy.cpu_stall_j).value() /
                  1e3,
              meas.energy.mem_j.value() / 1e3,
              meas.energy.net_j.value() / 1e3,
              meas.energy.idle_j.value() / 1e3);
  std::printf("  UCR    : %.2f   utilization: %.2f\n", meas.ucr(),
              meas.cpu_utilization);
  return 0;
}

int cmd_simulate(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "n", "c", "f", "trace",
                       "metrics", "report"});
  const cfg::Scenario s = scenario_from(args);
  return run_simulation(s, "simulate");
}

int cmd_validate(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "report"});
  const cfg::Scenario s = scenario_from(args);
  // Scenario-driven runs validate over the scenario's sweep space; flag
  // runs over the paper's measured grid.
  core::RunInputs in;
  if (!args.has("scenario")) {
    in.configs = core::validation_grid(s.machine, true);
  }
  core::RunResult res = core::run(s, core::Method::kValidate, in);
  const core::ValidationReport& report = *res.validation;
  std::printf("%s on %s over %zu configurations:\n", s.program.name.c_str(),
              s.machine.name.c_str(), report.rows.size());
  std::printf("  time error  : mean %.1f%%  sd %.1f%%  max %.1f%%\n",
              report.time_error.mean(), report.time_error.stddev(),
              report.time_error.max());
  std::printf("  energy error: mean %.1f%%  sd %.1f%%  max %.1f%%\n",
              report.energy_error.mean(), report.energy_error.stddev(),
              report.energy_error.max());
  write_outputs(s, res);
  return 0;
}

int cmd_netchar(const util::CliArgs& args) {
  require_flags(args, {"machine"});
  // netchar historically defaults to the ARM cluster (the network-bound
  // platform); an explicit --machine or --scenario overrides that.
  hw::MachineSpec m;
  if (args.has("machine") || args.has("scenario")) {
    m = scenario_from(args).machine;
  } else {
    m = hw::machine_by_name("arm");
  }
  const auto sweep = trace::netpipe_sweep(m, m.node.dvfs.f_max());
  util::Table t({"size [B]", "latency [us]", "throughput [Mbps]"});
  for (const auto& pt : sweep.points) {
    t.add_row({util::fmt(pt.message_bytes.value(), 0),
               util::fmt(pt.latency_s.value() * 1e6, 1),
               util::fmt(pt.throughput_bps.value() / 1e6, 2)});
  }
  std::printf("%sachievable: %.1f Mbps\n", t.to_text().c_str(),
              sweep.achievable_bps.value() / 1e6);
  return 0;
}

/// `hepex report show FILE` — human-readable rendering of a RunReport.
int report_show(const util::CliArgs& args) {
  require_flags(args, {});
  if (args.positionals().size() != 1) {
    fail_require("report show needs exactly one FILE operand");
  }
  const std::string& path = args.positionals()[0];
  const obs::RunReport r = obs::RunReport::load_file(path);

  std::printf("%s: %s%s%s\n", path.c_str(), r.command.c_str(),
              r.name.empty() ? "" : " — ", r.name.c_str());
  std::printf("  scenario : %s (class %s) on %s  [%s]\n", r.program.c_str(),
              r.input_class.c_str(), r.machine.c_str(),
              r.scenario_fingerprint.c_str());
  if (r.nodes > 0) {
    std::printf("  config   : %s  seed %llu%s\n",
                util::fmt_config(r.nodes, r.cores, r.f_ghz).c_str(),
                static_cast<unsigned long long>(r.seed),
                r.replicas > 1
                    ? ("  replicas " + std::to_string(r.replicas)).c_str()
                    : "");
  }
  if (r.has_results) {
    std::printf("  results  : %.2f s, %.3f kJ, UCR %.2f, util %.2f (%s)\n",
                r.time_s, r.energy_j / 1e3, r.ucr, r.cpu_utilization,
                r.outcome.c_str());
    std::printf("  events   : %.0f processed, %.1f per virtual second\n",
                r.events_processed, r.events_per_virtual_s);
  }
  if (!r.attribution.empty()) {
    util::Table t({"category", "energy [J]", "share", "time [s]"});
    const double total = r.attribution_energy_total();
    for (const auto& c : r.attribution) {
      t.add_row({c.name, util::fmt(c.energy_j, 1),
                 util::fmt(total > 0.0 ? 100.0 * c.energy_j / total : 0.0, 1) +
                     "%",
                 util::fmt(c.time_s, 2)});
    }
    std::printf("%s", t.to_text().c_str());
  }
  if (r.has_host) {
    std::printf("  host     : %.3f s wall, %.0f events/s\n", r.host_wall_s,
                r.host_events_per_s);
  }
  return 0;
}

/// `hepex report diff A B` — per-leaf deltas between two reports. Exits
/// 0 when the documents are identical, 1 when they differ (diff(1)
/// semantics).
int report_diff(const util::CliArgs& args) {
  require_flags(args, {});
  if (args.positionals().size() != 2) {
    fail_require("report diff needs exactly two FILE operands");
  }
  const obs::RunReport a = obs::RunReport::load_file(args.positionals()[0]);
  const obs::RunReport b = obs::RunReport::load_file(args.positionals()[1]);
  const auto deltas = obs::diff_reports(a, b);
  if (deltas.empty()) {
    std::printf("reports are identical\n");
    return 0;
  }
  for (const auto& d : deltas) {
    if (d.only_a) {
      std::printf("- %-40s  only in %s\n", d.path.c_str(),
                  args.positionals()[0].c_str());
    } else if (d.only_b) {
      std::printf("+ %-40s  only in %s\n", d.path.c_str(),
                  args.positionals()[1].c_str());
    } else if (d.numeric) {
      std::printf("~ %-40s  %s -> %s  (%+.3f%%)\n", d.path.c_str(),
                  util::json::number_to_string(d.a).c_str(),
                  util::json::number_to_string(d.b).c_str(),
                  d.b >= d.a ? 100.0 * d.rel : -100.0 * d.rel);
    } else {
      std::printf("~ %-40s  %s -> %s\n", d.path.c_str(), d.text_a.c_str(),
                  d.text_b.c_str());
    }
  }
  std::printf("%zu field(s) differ\n", deltas.size());
  return 1;
}

/// `hepex report check BASELINE [--against CANDIDATE]` — regression
/// gate. With --against, compares two report files. Without, re-runs the
/// scenario embedded in BASELINE (best-of-3 host timing) and checks the
/// fresh results against it. Exit 0 pass, 1 regression.
int report_check(const util::CliArgs& args) {
  require_flags(args, {"against", "tolerance", "rtol", "skip-host"});
  if (args.positionals().size() != 1) {
    fail_require("report check needs exactly one BASELINE operand");
  }
  const std::string& base_path = args.positionals()[0];
  const obs::RunReport baseline = obs::RunReport::load_file(base_path);

  obs::RunReport candidate;
  if (const auto against = args.get("against")) {
    candidate = obs::RunReport::load_file(*against);
  } else {
    // Rerun mode: the baseline must be self-contained.
    if (!baseline.scenario.is_object()) {
      fail_require("baseline " + base_path +
                   " does not embed its scenario; pass --against FILE");
    }
    cfg::Scenario s =
        cfg::load_scenario(baseline.scenario, base_path + ": scenario");
    // Jobs precedence matches scenario_from: an explicit --jobs beats the
    // width recorded in the baseline (CI runners with fewer cores than
    // the capture host must be able to pin the pool), and the override is
    // re-embedded so the candidate report records the width actually
    // used. main() already applied --jobs to the process pool.
    if (const auto jobs = args.get("jobs")) {
      s.jobs = util::parse_jobs(*jobs);
    } else if (s.jobs != 0) {
      par::set_default_jobs(s.jobs);
    }
    // The candidate is a report (so the run attaches a report's sinks).
    // Virtual-time results are identical across repeats; the best host
    // wall of three makes the throughput gate resist scheduler noise.
    s.obs.report_path = base_path;
    core::RunResult best;
    for (int rep = 0; rep < 3; ++rep) {
      core::RunResult res = core::run(s, core::Method::kSimulate);
      if (rep == 0 || res.wall < best.wall) best = std::move(res);
    }
    best.report.command =
        baseline.command.empty() ? "simulate" : baseline.command;
    trace::stamp_host(best.report, best.wall.value(), best.metrics.get());
    candidate = std::move(best.report);
  }

  obs::CheckOptions copts;
  copts.rtol = args.get_double_or("rtol", copts.rtol);
  copts.throughput_tolerance =
      args.get_double_or("tolerance", copts.throughput_tolerance);
  copts.check_host = !args.has("skip-host");

  const obs::CheckResult res = obs::check_reports(baseline, candidate, copts);
  if (!res.note.empty()) std::printf("%s\n", res.note.c_str());
  util::Table t({"metric", "baseline", "candidate", "rel", "limit", ""});
  for (const auto& item : res.items) {
    t.add_row({item.metric, util::fmt(item.baseline, 6),
               util::fmt(item.candidate, 6),
               util::fmt(100.0 * item.rel, 4) + "%",
               util::fmt(100.0 * item.limit, 4) + "%" +
                   (item.one_sided ? " (one-sided)" : ""),
               item.pass ? "ok" : "FAIL"});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("check %s: %zu metric(s) compared\n",
              res.pass ? "PASSED" : "FAILED", res.items.size());
  return res.pass ? 0 : 1;
}

int cmd_report(const util::CliArgs& args) {
  const std::string& sub = args.subcommand();
  if (sub == "show") return report_show(args);
  if (sub == "diff") return report_diff(args);
  if (sub == "check") return report_check(args);
  if (!sub.empty()) {
    fail_require("report subcommands: show FILE | diff A B | "
                 "check BASELINE [--against FILE]");
  }
  require_flags(args, {"machine", "program", "class"});
  const cfg::Scenario s = scenario_from(args);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  std::printf("%s", core::markdown_report(advisor).c_str());
  return 0;
}

int cmd_whatif(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "membw", "netbw", "n",
                       "c", "f"});
  const cfg::Scenario s = scenario_from(args);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  const auto run = s.single_config();
  const auto before = advisor.predict(run);
  std::printf("stock          : %.2f s, %.3f kJ, UCR %.2f\n",
              before.time_s.value(), before.energy_j.value() / 1e3,
              before.ucr);
  if (args.has("membw")) {
    const double k = args.get_double_or("membw", 2.0);
    auto upgraded = advisor.with_memory_bandwidth(k);
    const auto after = upgraded.predict(run);
    std::printf("%.1fx memory bw : %.2f s, %.3f kJ, UCR %.2f\n", k,
                after.time_s.value(), after.energy_j.value() / 1e3,
                after.ucr);
  }
  if (args.has("netbw")) {
    const double k = args.get_double_or("netbw", 2.0);
    auto upgraded = advisor.with_network_bandwidth(k);
    const auto after = upgraded.predict(run);
    std::printf("%.1fx network bw: %.2f s, %.3f kJ, UCR %.2f\n", k,
                after.time_s.value(), after.energy_j.value() / 1e3,
                after.ucr);
  }
  return 0;
}

int cmd_programs(const util::CliArgs& args) {
  require_flags(args, {});
  util::Table t({"name", "suite", "language", "pattern", "domain"});
  for (const auto& name : workload::program_names()) {
    const auto p = workload::program_by_name(name, workload::InputClass::kA);
    t.add_row({p.name, p.suite, p.language,
               workload::to_string(p.comm.pattern), p.domain});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("(LU..LB are the paper's validation set; MG, FT, CG are "
              "extensions.)\n");
  return 0;
}

/// `hepex workload list` — the workload-source registry and every
/// enumerable program reference.
int workload_list(const util::CliArgs& args) {
  require_flags(args, {});
  if (!args.positionals().empty()) {
    fail_require("workload list takes no operands");
  }
  util::Table t({"source", "references", "description"});
  for (const auto& name : workload::source_names()) {
    const workload::Source& src = workload::source_by_name(name);
    std::string refs;
    for (const auto& r : src.refs()) {
      if (!refs.empty()) refs += ", ";
      refs += r;
    }
    if (refs.empty()) refs = "(open-ended)";
    t.add_row({name, refs, src.description()});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("(reference grammar: [source:]rest — bare names are "
              "analytic programs)\n");
  return 0;
}

/// `hepex workload show REF [--class X]` — resolve a program reference
/// and print the spec as canonical JSON with its provenance.
int workload_show(const util::CliArgs& args) {
  require_flags(args, {"class"});
  if (args.positionals().size() != 1) {
    fail_require("workload show needs exactly one REF operand");
  }
  const workload::InputClass cls =
      workload::input_class_from_string(args.get_or("class", "A"));
  const workload::ResolvedProgram r =
      workload::resolve_program(args.positionals()[0], cls);
  auto doc = util::json::Value::object();
  doc.set("source", util::json::Value(r.provenance.source));
  doc.set("origin", util::json::Value(r.provenance.origin));
  doc.set("detail", util::json::Value(r.provenance.detail));
  doc.set("class", util::json::Value(workload::to_string(r.program.input)));
  doc.set("program", cfg::program_to_json(r.program));
  std::printf("%s", util::json::dump(doc).c_str());
  return 0;
}

int cmd_workload(const util::CliArgs& args) {
  const std::string& sub = args.subcommand();
  if (sub == "list") return workload_list(args);
  if (sub == "show") return workload_show(args);
  fail_require("workload needs a subcommand: list | show REF [--class X]");
}

/// `hepex trace gen` — serialize a resolved program as a hepex-trace/1
/// document (stdout, or --out FILE).
int trace_gen(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "out"});
  if (!args.positionals().empty()) {
    fail_require("trace gen takes no operands");
  }
  const cfg::Scenario s = scenario_from(args);
  const std::string text = workload::write_trace(s.program);
  if (const auto out = args.get("out")) {
    std::FILE* f = std::fopen(out->c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("hepex: cannot open '" + *out +
                               "' for writing");
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("trace written: %s\n", out->c_str());
  } else {
    std::printf("%s", text.c_str());
  }
  return 0;
}

/// `hepex trace validate FILE...` — parse and lower each trace; any
/// malformed document fails with its line/column diagnostic.
int trace_validate(const util::CliArgs& args) {
  require_flags(args, {});
  if (args.positionals().empty()) {
    fail_require("trace validate needs at least one FILE operand");
  }
  for (const auto& path : args.positionals()) {
    std::ifstream is(path);
    if (!is) {
      throw std::runtime_error("hepex: cannot open '" + path +
                               "' for reading");
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    const workload::TraceDoc doc = workload::parse_trace(ss.str(), path);
    const workload::ProgramSpec p = workload::lower_trace(doc);
    std::printf("%s: OK — %s (class %s), %d iterations, %zu block(s)\n",
                path.c_str(), p.name.c_str(),
                workload::to_string(p.input).c_str(), p.iterations,
                doc.blocks.size());
  }
  return 0;
}

/// `hepex trace replay FILE` — lower a trace onto the execution engine
/// and run it at the scenario's single configuration. Without --class
/// the trace replays at its recorded input class.
int trace_replay(const util::CliArgs& args) {
  require_flags(args, {"machine", "class", "n", "c", "f", "trace", "metrics",
                       "report"});
  if (args.positionals().size() != 1) {
    fail_require("trace replay needs exactly one FILE operand");
  }
  const std::string& path = args.positionals()[0];
  cfg::Scenario s = scenario_from(args);
  workload::ProgramSpec p = workload::load_trace_file(path);
  if (args.has("class")) {
    if (p.input != s.input) p = workload::with_input_class(p, s.input);
  } else {
    s.input = p.input;
  }
  s.program_name = "trace:" + path;
  s.program = p;
  s.validate();
  return run_simulation(s, "replay");
}

int cmd_trace(const util::CliArgs& args) {
  const std::string& sub = args.subcommand();
  if (sub == "gen") return trace_gen(args);
  if (sub == "validate") return trace_validate(args);
  if (sub == "replay") return trace_replay(args);
  fail_require("trace needs a subcommand: gen [--out FILE] | "
               "validate FILE... | replay FILE");
}

int cmd_machines(const util::CliArgs& args) {
  require_flags(args, {});
  util::Table t({"key", "name", "cores/node", "f range [GHz]", "memory BW",
                 "network"});
  for (const auto& key : hw::machine_names()) {
    const auto m = hw::machine_by_name(key);
    t.add_row({key, m.name, std::to_string(m.node.cores),
               util::fmt(m.node.dvfs.f_min().value() / 1e9, 1) + "-" +
                   util::fmt(m.node.dvfs.f_max().value() / 1e9, 1),
               util::fmt(
                   m.node.memory.bandwidth_bytes_per_s.value() / 1e9, 1) +
                   " GB/s",
               util::fmt(m.network.link_bits_per_s.value() / 1e9, 1) +
                   " Gbps"});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("(xeon and arm are the paper's Table 3 clusters; modern is "
              "an extension preset)\n");
  return 0;
}

int cmd_sensitivity(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "n", "c", "f"});
  const cfg::Scenario s = scenario_from(args);
  const auto run = s.single_config();
  const auto ch = model::characterize(s.machine, s.program);
  const auto rep = model::sensitivity(ch, model::target_of(s.program), run);
  std::printf("%s at %s: T = %.1f s, E = %.2f kJ\n", s.program.name.c_str(),
              util::fmt_config(run.nodes, run.cores, run.f_hz.value() / 1e9)
                  .c_str(),
              rep.nominal.time_s.value(),
              rep.nominal.energy_j.value() / 1e3);
  util::Table t({"input", "dlnT/dln(x)", "dlnE/dln(x)"});
  for (const auto& sens : rep.inputs) {
    t.add_row({model::to_string(sens.input), util::fmt(sens.time_elasticity, 3),
               util::fmt(sens.energy_elasticity, 3)});
  }
  std::printf("%s", t.to_text().c_str());
  const auto pi = model::prediction_interval(ch, model::target_of(s.program),
                                             run, 0.10);
  std::printf("10%% input uncertainty: T in [%.1f, %.1f] s, E in "
              "[%.2f, %.2f] kJ\n",
              pi.time_lo_s.value(), pi.time_hi_s.value(),
              pi.energy_lo_j.value() / 1e3, pi.energy_hi_j.value() / 1e3);
  return 0;
}

int cmd_characterize(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "out"});
  const cfg::Scenario s = scenario_from(args);
  const auto ch = model::characterize(s.machine, s.program);
  const std::string out = args.get_or("out", "characterization.json");
  model::save_characterization_file(ch, out);
  std::printf("characterized %s on %s -> %s\n", s.program.name.c_str(),
              s.machine.name.c_str(), out.c_str());
  return 0;
}

int cmd_predict(const util::CliArgs& args) {
  require_flags(args, {"from", "n", "c", "f", "class", "iters"});
  const auto path = args.get("from");
  if (!path) fail_require("predict needs --from FILE");
  const auto ch = model::load_characterization_file(*path);
  hw::ClusterConfig run;
  model::TargetInfo target;
  if (args.has("scenario")) {
    // The scenario supplies (n, c, f) and the input class; flags still
    // override. The machine itself always comes from the file.
    const cfg::Scenario s = scenario_from(args);
    run = s.single_config();
    target.input = s.input;
  } else {
    run = config_from(args, ch.machine);
    target.input =
        workload::input_class_from_string(args.get_or("class", "A"));
  }
  target.iterations =
      args.get_int_or("iters", workload::iteration_count(target.input));
  const auto pred = model::predict(ch, target, run);
  std::printf("%s at %s: %.2f s, %.3f kJ, UCR %.2f "
              "(cpu %.2f + mem %.2f + net %.2f s)\n",
              ch.program_name.c_str(),
              util::fmt_config(run.nodes, run.cores, run.f_hz.value() / 1e9)
                  .c_str(),
              pred.time_s.value(), pred.energy_j.value() / 1e3, pred.ucr,
              pred.t_cpu_s.value(), pred.t_mem_s.value(),
              (pred.t_w_net_s + pred.t_s_net_s).value());
  return 0;
}

/// `hepex faults` — resilience-aware advice (docs/faults.md).
///
/// Advice mode (no configuration): compare the fault-free frontier to the
/// frontier under a per-node MTBF and recommend the minimum-expected-energy
/// configuration. Simulate mode (a (n,c,f) from --n or the scenario): run
/// one configuration under a fault plan — the scenario's plan when given,
/// with fault flags layered on top — and report the measured
/// T_fault / E_fault.
int cmd_faults(const util::CliArgs& args) {
  require_flags(args, {"machine", "program", "class", "mtbf", "ckpt-write",
                       "restart-cost", "ckpt-interval", "n", "c", "f", "mode",
                       "crash-node", "crash-at", "barrier-timeout", "spares",
                       "fault-seed", "replicas", "report"});
  cfg::Scenario s = scenario_from(args);

  if (s.config.has_value()) {
    // The fault flags layer onto the scenario's plan, so the report
    // embeds the plan that actually ran.
    const bool scenario_plan = s.faults.has_value();
    fault::Plan& plan = scenario_plan ? *s.faults : s.faults.emplace();
    if (!scenario_plan || args.has("fault-seed")) {
      plan.seed = static_cast<std::uint64_t>(args.get_int_or("fault-seed", 1));
    }
    const auto seconds = [&args](const char* flag, double& to) {
      if (const auto v = args.get(flag)) to = util::parse_duration(*v).value();
    };
    seconds("mtbf", plan.random_failures.node_mtbf_s);
    if (args.has("crash-node")) {
      plan.crashes.push_back(
          fault::NodeCrash{args.get_int_or("crash-node", 0),
                           duration_or(args, "crash-at", 0.0).value()});
    }
    if (const auto mode = args.get("mode")) {
      if (*mode == "abort") {
        plan.recovery.mode = fault::RecoveryMode::kAbort;
      } else if (*mode == "restart") {
        plan.recovery.mode = fault::RecoveryMode::kCheckpointRestart;
      } else {
        fail_require("--mode must be abort or restart");
      }
    }
    seconds("ckpt-write", plan.recovery.checkpoint_write_s);
    seconds("restart-cost", plan.recovery.restart_s);
    seconds("ckpt-interval", plan.recovery.checkpoint_interval_s);
    seconds("barrier-timeout", plan.recovery.barrier_timeout_s);
    plan.recovery.spare_nodes =
        args.get_int_or("spares", plan.recovery.spare_nodes);
    if (plan.empty()) {
      fail_require(
          "faults simulate mode needs --mtbf, --crash-node or a "
          "scenario fault plan");
    }

    const hw::ClusterConfig run = *s.config;
    core::RunResult res = core::run(s, core::Method::kFaults);
    write_outputs(s, res);
    if (res.ensemble) {
      // Monte-Carlo ensemble: replicas differ only in derived seeds, so
      // the summary is reproducible run-to-run (and thread-count
      // independent; see docs/performance.md).
      const trace::EnsembleSummary& sum = *res.ensemble;
      std::printf("simulated %d replicas of %s on %s at %s under faults:\n",
                  s.sim.replicas, s.program.name.c_str(),
                  s.machine.name.c_str(),
                  util::fmt_config(run.nodes, run.cores,
                                   run.f_hz.value() / 1e9)
                      .c_str());
      std::printf("  outcome   : %zu completed, %zu aborted\n",
                  sum.completed, sum.aborted);
      std::printf("  time      : mean %.2f s  sd %.2f s  max %.2f s\n",
                  sum.time_s.mean(), sum.time_s.stddev(), sum.time_s.max());
      std::printf("  energy    : mean %.3f kJ  sd %.3f kJ\n",
                  sum.energy_j.mean() / 1e3, sum.energy_j.stddev() / 1e3);
      std::printf("  T_fault   : mean %.2f s  max %.2f s\n",
                  sum.fault_time_s.mean(), sum.fault_time_s.max());
      std::printf("  events    : %d crashes, %d recoveries across replicas\n",
                  sum.crashes, sum.recoveries);
      return sum.aborted == 0 ? 0 : 1;
    }

    const trace::Measurement& meas = *res.measurement;
    std::printf("simulated %s on %s at %s under faults:\n",
                s.program.name.c_str(), s.machine.name.c_str(),
                util::fmt_config(run.nodes, run.cores,
                                 run.f_hz.value() / 1e9)
                    .c_str());
    std::printf("  outcome   : %s after %.2f s\n",
                meas.completed() ? "completed" : "ABORTED",
                meas.time_s.value());
    std::printf("  energy    : %.3f kJ (of which fault %.3f kJ)\n",
                meas.energy.total().value() / 1e3,
                meas.energy.fault_j.value() / 1e3);
    std::printf("  T_fault   : %.2f s (checkpoints %.2f, rework %.2f, "
                "downtime %.2f)\n",
                meas.t_fault_s.value(), meas.faults.checkpoint_s.value(),
                meas.faults.rework_s.value(), meas.faults.downtime_s.value());
    std::printf("  events    : %d crashes, %d recoveries, %d checkpoints, "
                "%d retransmits\n",
                meas.faults.crashes, meas.faults.recoveries,
                meas.faults.checkpoints, meas.faults.retransmits);
    return meas.completed() ? 0 : 1;
  }

  model::ResilienceSpec spec;
  spec.node_mtbf_s = duration_or(args, "mtbf", 0.0).value();
  spec.checkpoint_write_s = duration_or(args, "ckpt-write", 1.0).value();
  spec.restart_s = duration_or(args, "restart-cost", 5.0).value();
  spec.checkpoint_interval_s = duration_or(args, "ckpt-interval", 0.0).value();
  if (!spec.enabled()) {
    fail_require("faults needs --mtbf SECONDS");
  }

  core::Advisor advisor = core::Advisor::from_scenario(s);
  const pareto::ConfigPoint* base = pareto::min_energy(advisor.explore());
  const auto rec = advisor.recommend_resilient(spec);
  const auto pred = advisor.predict(rec.config);
  const auto oh = model::expected_fault_overhead(
      pred.time_s, rec.config.nodes, pred.energy_parts, s.machine.node.power,
      spec);

  std::printf("fault-free optimum : %s: %.2f s, %.3f kJ\n",
              util::fmt_config(base->config.nodes, base->config.cores,
                               base->config.f_hz.value() / 1e9)
                  .c_str(),
              base->time_s.value(), base->energy_j.value() / 1e3);
  std::printf("MTBF %.0f s/node    : %s: %.2f s, %.3f kJ expected\n",
              spec.node_mtbf_s,
              util::fmt_config(rec.config.nodes, rec.config.cores,
                               rec.config.f_hz.value() / 1e9)
                  .c_str(),
              rec.time_s.value(), rec.energy_j.value() / 1e3);
  if (oh) {
    std::printf("  checkpoint every %.1f s; ~%.2f failures expected\n",
                oh->interval_s.value(), oh->expected_failures);
  }
  std::printf("resilient frontier:\n");
  print_points(advisor.resilient_frontier(spec));
  return 0;
}

int usage() {
  std::printf(
      "hepex — energy-efficient execution of hybrid parallel programs\n"
      "commands: advise | frontier | recommend | simulate | validate |\n"
      "          netchar | report | whatif | characterize | predict |\n"
      "          sensitivity | faults | programs | machines |\n"
      "          scenario validate|print | report show|diff|check |\n"
      "          workload list|show REF | trace gen|validate|replay\n"
      "scenarios: --scenario FILE on any command loads a declarative run\n"
      "           description (docs/scenarios.md); remaining flags are\n"
      "           overrides layered on top.\n"
      "common flags: --machine xeon|arm|modern  --program BT|LU|SP|CP|LB  "
      "--class S|W|A|B|C\n"
      "observability: --log-level LEVEL  --profile\n"
      "               simulate: --trace=FILE --metrics=FILE\n"
      "               simulate|validate|advise|faults: --report=FILE\n"
      "                 (schema-versioned RunReport provenance artifact)\n"
      "reports:       report show FILE — render a RunReport\n"
      "               report diff A B — per-field deltas (exit 1 on change)\n"
      "               report check BASELINE [--against FILE] [--tolerance T]\n"
      "                 [--rtol R] [--skip-host] — regression gate (exit 1)\n"
      "parallelism:   --jobs N (0 = all cores; identical results at any N)\n"
      "               faults: --replicas R (Monte-Carlo ensemble)\n"
      "workloads:     workload list — the source registry\n"
      "               workload show REF [--class X] — resolved spec as JSON\n"
      "               trace gen [--program P] [--out FILE] — emit a "
      "workload trace\n"
      "               trace validate FILE... | trace replay FILE\n"
      "see the README, docs/scenarios.md, docs/workloads.md,\n"
      "docs/observability.md and docs/performance.md for per-command "
      "flags.\n");
  return 2;
}

int dispatch(const util::CliArgs& args) {
  const std::string& cmd = args.command();
  // Only `scenario`, `report`, `workload` and `trace` have subcommand
  // grammars, and only `report`, `workload show` and the `trace`
  // subcommands take file/reference operands; stray tokens elsewhere are
  // errors.
  const bool has_subcommands =
      cmd == "scenario" || cmd == "report" || cmd == "workload" ||
      cmd == "trace";
  if (!has_subcommands && !args.subcommand().empty()) {
    fail_require("unexpected positional argument '" + args.subcommand() +
                 "'");
  }
  if (cmd != "report" && cmd != "workload" && cmd != "trace" &&
      !args.positionals().empty()) {
    fail_require("unexpected positional argument '" + args.positionals()[0] +
                 "'");
  }
  if (cmd.empty() && (args.has("trace") || args.has("metrics"))) {
    // Bare `hepex --trace=out.json`: trace the quickstart workload.
    return cmd_simulate(args);
  }
  if (cmd == "advise") return cmd_advise(args);
  if (cmd == "scenario") return cmd_scenario(args);
  if (cmd == "frontier") return cmd_frontier(args);
  if (cmd == "recommend") return cmd_recommend(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "validate") return cmd_validate(args);
  if (cmd == "netchar") return cmd_netchar(args);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "whatif") return cmd_whatif(args);
  if (cmd == "characterize") return cmd_characterize(args);
  if (cmd == "predict") return cmd_predict(args);
  if (cmd == "programs") return cmd_programs(args);
  if (cmd == "workload") return cmd_workload(args);
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "machines") return cmd_machines(args);
  if (cmd == "sensitivity") return cmd_sensitivity(args);
  if (cmd == "faults") return cmd_faults(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = util::CliArgs::parse(argc, argv);
    if (const auto level = args.get("log-level")) {
      obs::Log::set_level(obs::log_level_from_string(*level));
    }
    if (const auto jobs = args.get("jobs")) {
      par::set_default_jobs(util::parse_jobs(*jobs));
    }
    if (args.has("profile")) {
      obs::Profiler::instance().set_enabled(true);
    }
    const int rc = dispatch(args);
    if (obs::Profiler::instance().enabled()) {
      const std::string report = obs::Profiler::instance().report();
      std::fprintf(stderr, "\nhost-time profile:\n%s",
                   report.empty() ? "(no timers fired)\n" : report.c_str());
    }
    return rc;
  } catch (const std::invalid_argument& e) {
    // Usage errors (bad flags, bad values, impossible configurations).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
