// hepex — command-line front end to the HEPEX library.
//
// Each command is one row of `kCommands` below: its name, operands,
// accepted flags, handler and help line. The usage text, the flag and
// operand checks and dispatch all read that table. `--scenario FILE` on
// any command loads a declarative Scenario (docs/scenarios.md) and the
// other flags override its fields: CLI flag > scenario field > registry
// default.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage/configuration error.

#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
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
#include "workload/synthetic.hpp"
#include "workload/trace_format.hpp"

using namespace hepex;

namespace {

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
  if (s.workload_grid) {
    // A grid scenario names no program: --class regenerates its first
    // point at the new input class, as `"class"` in the file would.
    if (args.has("program")) {
      fail_require(
          "--program cannot replace a scenario's workload.grid; drop the "
          "grid from the scenario to run one program");
    }
    if (const auto cls = args.get("class")) {
      s.input = workload::input_class_from_string(*cls);
      s.program = workload::make_synthetic(s.workload_grid->expand().front(),
                                           s.input);
    }
  } else if (args.has("program") || args.has("class")) {
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

/// "(n,c,f)" with f in GHz, as every table and summary line spells it.
std::string config_text(const hw::ClusterConfig& c) {
  return util::fmt_config(c.nodes, c.cores, c.f_hz.value() / 1e9);
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
    t.add_row({config_text(p.config), util::fmt(p.time_s.value(), 2),
               util::fmt(p.energy_j.value() / 1e3, 3), util::fmt(p.ucr, 2)});
  }
  std::printf("%s", t.to_text().c_str());
}

/// "LABEL: (n,c,f) (T s, E kJ)" for one chosen point.
void print_choice(const std::string& label, const pareto::ConfigPoint& p) {
  std::printf("%s: %s (%.2f s, %.3f kJ)\n", label.c_str(),
              config_text(p.config).c_str(), p.time_s.value(),
              p.energy_j.value() / 1e3);
}

/// `hepex advise` over a synthetic grid: one min-energy row per expanded
/// signature point, plus the grid-wide optimum.
int advise_grid(const util::CliArgs& args, const cfg::Scenario& s) {
  if (args.has("deadline") || args.has("budget")) {
    fail_require(
        "--deadline/--budget apply to a single program, not a synthetic "
        "grid (drop workload.grid or the flag)");
  }
  // Run first: a scenario the advisor rejects then prints nothing.
  core::RunResult res = core::run(s, core::Method::kAdvise);
  std::printf("advice for synthetic grid (%zu points, class %s) on %s:\n",
              s.workload_grid->expand().size(),
              workload::to_string(s.input).c_str(), s.machine.name.c_str());
  util::Table t({"signature", "program", "min-energy (n,c,f)", "time [s]",
                 "energy [kJ]"});
  const core::GridRow* best = nullptr;
  for (const auto& row : res.grid) {
    const pareto::ConfigPoint& p = row.min_energy;
    t.add_row({row.signature, row.program, config_text(p.config),
               util::fmt(p.time_s.value(), 2),
               util::fmt(p.energy_j.value() / 1e3, 3)});
    if (best == nullptr || p.energy_j < best->min_energy.energy_j) best = &row;
  }
  std::printf("%s", t.to_text().c_str());
  if (best != nullptr) {
    const pareto::ConfigPoint& p = best->min_energy;
    std::printf("grid minimum energy: %s (%s) at %s (%.2f s, %.3f kJ)\n",
                best->program.c_str(), best->signature.c_str(),
                config_text(p.config).c_str(), p.time_s.value(),
                p.energy_j.value() / 1e3);
  }
  write_outputs(s, res);
  return 0;
}

int cmd_advise(const util::CliArgs& args) {
  const cfg::Scenario s = scenario_from(args);
  if (s.workload_grid) return advise_grid(args, s);
  // Check the query flags before anything is printed or written; the
  // negated comparisons also reject NaN.
  std::optional<q::Seconds> deadline;
  if (const auto raw = args.get("deadline")) {
    deadline = util::parse_duration(*raw);
    if (!(*deadline > q::Seconds{})) {
      fail_require("--deadline must be positive, got '" + *raw + "'");
    }
  }
  std::optional<q::Joules> budget;
  if (const auto raw = args.get("budget")) {
    budget = util::parse_energy(*raw);
    if (!(*budget > q::Joules{})) {
      fail_require("--budget must be positive, got '" + *raw + "'");
    }
  }
  core::Advisor advisor = core::Advisor::from_scenario(s);
  std::printf("advice for %s (class %s) on %s:\n", s.program.name.c_str(),
              workload::to_string(s.input).c_str(), s.machine.name.c_str());
  core::RunResult res = core::run(s, core::Method::kAdvise, {&advisor, {}});
  print_points(res.frontier);
  if (const pareto::ConfigPoint* best = pareto::min_energy(res.frontier)) {
    print_choice("minimum energy", *best);
  }
  write_outputs(s, res);
  if (deadline) {
    const std::string label = "deadline " + util::fmt(deadline->value(), 1) +
                              " s";
    if (const auto rec = advisor.for_deadline(*deadline)) {
      print_choice(label, rec->point);
    } else {
      std::printf("%s: no configuration meets it\n", label.c_str());
    }
  }
  if (budget) {
    const std::string label = "budget " + util::fmt(budget->value(), 0) + " J";
    if (const auto rec = advisor.for_budget(*budget)) {
      print_choice(label, rec->point);
    } else {
      std::printf("%s: no configuration fits it\n", label.c_str());
    }
  }
  return 0;
}

int scenario_validate(const util::CliArgs& args) {
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

int scenario_print(const util::CliArgs& args) {
  const cfg::Scenario s = scenario_from(args);
  if (const auto out = args.get("out")) {
    cfg::save_scenario_file(s, *out);
    std::printf("scenario written: %s\n", out->c_str());
  } else {
    std::printf("%s", cfg::save_scenario(s).c_str());
  }
  return 0;
}

/// Execute the scenario's single configuration and print the measurement
/// — the shared back half of `simulate` and `trace replay`. A non-null
/// `command` renames the invocation in any RunReport written.
int run_simulation(const cfg::Scenario& s, const char* command = nullptr) {
  core::RunResult res = core::run(s, core::Method::kSimulate);
  if (command != nullptr) res.report.command = command;
  write_outputs(s, res);
  const trace::Measurement& meas = *res.measurement;
  const hw::ClusterConfig run = s.single_config();
  std::printf("measured %s on %s at %s:\n", s.program.name.c_str(),
              s.machine.name.c_str(), config_text(run).c_str());
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
  const cfg::Scenario s = scenario_from(args);
  return run_simulation(s);
}

int cmd_validate(const util::CliArgs& args) {
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
  const cfg::Scenario s = scenario_from(args);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  std::printf("%s", core::markdown_report(advisor).c_str());
  return 0;
}

int cmd_whatif(const util::CliArgs& args) {
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

/// `hepex workload list` — the workload-source registry and every
/// enumerable program reference.
int workload_list(const util::CliArgs& /*args*/) {
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

/// `hepex trace gen` — serialize a resolved program as a hepex-trace/1
/// document (stdout, or --out FILE).
int trace_gen(const util::CliArgs& args) {
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

int cmd_machines(const util::CliArgs& /*args*/) {
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
  const cfg::Scenario s = scenario_from(args);
  const auto run = s.single_config();
  core::Advisor advisor = core::Advisor::from_scenario(s);
  const model::Characterization& ch = advisor.characterization();
  const auto rep = model::sensitivity(ch, model::target_of(s.program), run);
  std::printf("%s at %s: T = %.1f s, E = %.2f kJ\n", s.program.name.c_str(),
              config_text(run).c_str(), rep.nominal.time_s.value(),
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
  const cfg::Scenario s = scenario_from(args);
  core::Advisor advisor = core::Advisor::from_scenario(s);
  const model::Characterization& ch = advisor.characterization();
  const std::string out = args.get_or("out", "characterization.json");
  model::save_characterization_file(ch, out);
  std::printf("characterized %s on %s -> %s\n", s.program.name.c_str(),
              s.machine.name.c_str(), out.c_str());
  return 0;
}

int cmd_predict(const util::CliArgs& args) {
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
              ch.program_name.c_str(), config_text(run).c_str(),
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
  // Both modes read a non-positive MTBF as "no random failures", which
  // would leave a given --mtbf silently unused.
  if (args.has("mtbf") && !(duration_or(args, "mtbf", 0.0).value() > 0.0)) {
    fail_require("--mtbf must be > 0");
  }
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
                  s.machine.name.c_str(), config_text(run).c_str());
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
                config_text(run).c_str());
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

  // Advice mode predicts and runs nothing, so the flags that shape or
  // record a run have nothing to act on.
  for (const char* flag : {"report", "replicas", "crash-node", "crash-at",
                           "mode", "barrier-timeout", "spares",
                           "fault-seed"}) {
    if (args.has(flag)) {
      fail_require(std::string("--") + flag +
                   " needs a configuration (--n/--c/--f or a scenario "
                   "config); faults advice mode does not read it");
    }
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
              config_text(base->config).c_str(), base->time_s.value(),
              base->energy_j.value() / 1e3);
  std::printf("MTBF %.0f s/node    : %s: %.2f s, %.3f kJ expected\n",
              spec.node_mtbf_s, config_text(rec.config).c_str(),
              rec.time_s.value(), rec.energy_j.value() / 1e3);
  if (oh) {
    std::printf("  checkpoint every %.1f s; ~%.2f failures expected\n",
                oh->interval_s.value(), oh->expected_failures);
  }
  std::printf("resilient frontier:\n");
  print_points(advisor.resilient_frontier(spec));
  return 0;
}

/// One CLI command. `name` is one word, or a group and a subcommand
/// ("report show"). `operands` spells the operands after the name; its
/// word count is how many the command takes, and a trailing "..." means
/// that many or more. `flags` lists the accepted flags, space-separated,
/// on top of kCommonFlags.
struct Command {
  const char* name;
  const char* operands;
  const char* flags;
  int (*run)(const util::CliArgs&);
  const char* help;
};

/// Flags every command accepts.
constexpr const char* kCommonFlags = "scenario jobs log-level profile";

constexpr Command kCommands[] = {
    {"advise", "", "machine program class deadline budget report", cmd_advise,
     "least-energy frontier; --deadline/--budget pick one"},
    {"simulate", "", "machine program class n c f trace metrics report",
     cmd_simulate, "simulate one (n,c,f) configuration"},
    {"validate", "", "machine program class report", cmd_validate,
     "model error against simulation over a grid"},
    {"faults", "",
     "machine program class mtbf ckpt-write restart-cost ckpt-interval n c f "
     "mode crash-node crash-at barrier-timeout spares fault-seed replicas "
     "report",
     cmd_faults, "MTBF advice, or one faulty run with --n/--c/--f"},
    {"whatif", "", "machine program class membw netbw n c f", cmd_whatif,
     "predicted gain from faster memory or network"},
    {"sensitivity", "", "machine program class n c f", cmd_sensitivity,
     "elasticities of T and E at one configuration"},
    {"characterize", "", "machine program class out", cmd_characterize,
     "write a program's model inputs as JSON"},
    {"predict", "", "from n c f class iters", cmd_predict,
     "predict one configuration from a characterization"},
    {"report", "", "machine program class", cmd_report,
     "markdown report of the advice"},
    {"report show", "FILE", "", report_show, "render a RunReport"},
    {"report diff", "A B", "", report_diff,
     "per-field deltas (exit 1 when they differ)"},
    {"report check", "BASELINE", "against tolerance rtol skip-host",
     report_check, "regression gate; reruns BASELINE without --against"},
    {"netchar", "", "machine", cmd_netchar,
     "NetPIPE sweep of the network (default machine arm)"},
    {"machines", "", "", cmd_machines, "the machine presets"},
    {"scenario validate", "", "", scenario_validate,
     "check the --scenario file"},
    {"scenario print", "", "machine program class n c f replicas out",
     scenario_print, "the resolved scenario as JSON"},
    {"workload list", "", "", workload_list,
     "the workload sources and their programs"},
    {"workload show", "REF", "class", workload_show,
     "a resolved program spec as JSON"},
    {"trace gen", "", "program class out", trace_gen,
     "write a program as a workload trace"},
    {"trace validate", "FILE...", "", trace_validate,
     "parse and lower each trace"},
    {"trace replay", "FILE", "machine class n c f trace metrics report",
     trace_replay, "simulate a trace at one configuration"},
};

std::vector<std::string> words(const char* text) {
  std::istringstream in(text);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

const Command* find_command(const std::string& name) {
  for (const Command& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

/// The subcommands of `group`, "a | b | c"; empty when it has none.
std::string subcommands_of(const std::string& group) {
  const std::string prefix = group + " ";
  std::string out;
  for (const Command& c : kCommands) {
    const std::string name = c.name;
    if (name.starts_with(prefix)) {
      out += (out.empty() ? "" : " | ") + name.substr(prefix.size());
    }
  }
  return out;
}

int usage() {
  std::printf(
      "hepex — energy-efficient execution of hybrid parallel programs\n"
      "usage: hepex COMMAND [OPERAND...] [--flag VALUE | --flag=VALUE]...\n"
      "\n");
  for (const Command& c : kCommands) {
    std::string head = c.name;
    if (*c.operands != '\0') head += std::string(" ") + c.operands;
    std::printf("  %-24s%s\n", head.c_str(), c.help);
    std::string line;
    for (const std::string& flag : words(c.flags)) {
      if (!line.empty() && line.size() + 3 + flag.size() > 72) {
        std::printf("      %s\n", line.c_str());
        line.clear();
      }
      line += (line.empty() ? "--" : " --") + flag;
    }
    if (!line.empty()) std::printf("      %s\n", line.c_str());
  }
  std::printf(
      "\n"
      "Every command also accepts --scenario FILE (a declarative run, see\n"
      "docs/scenarios.md; the flags above override its fields), --jobs N\n"
      "(0 = all cores), --log-level LEVEL and --profile. `hepex machines`\n"
      "and `hepex workload list` name the --machine and --program values.\n"
      "`hepex --trace=FILE` with no command traces the quickstart run.\n");
  return 2;
}

int dispatch(const util::CliArgs& args) {
  std::string name = args.command();
  if (name.empty() && (args.has("trace") || args.has("metrics"))) {
    // Bare `hepex --trace=out.json` traces the quickstart workload.
    for (const Command& c : kCommands) {
      if (c.run == cmd_simulate) name = c.name;
    }
  }
  if (name.empty()) return usage();
  const std::string& sub = args.subcommand();
  std::vector<std::string> operands = args.positionals();
  const Command* cmd = sub.empty() ? nullptr : find_command(name + " " + sub);
  if (cmd == nullptr) {
    cmd = find_command(name);
    // A command without subcommands reads its second token as an operand.
    if (!sub.empty()) operands.insert(operands.begin(), sub);
  }
  const std::string subs = subcommands_of(name);
  if (cmd == nullptr && subs.empty()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
    return usage();
  }
  if (cmd == nullptr) fail_require(name + " needs a subcommand: " + subs);

  const std::vector<std::string> spelled = words(cmd->operands);
  const bool variadic = !spelled.empty() && spelled.back().ends_with("...");
  if (operands.size() < spelled.size()) {
    fail_require(std::string(cmd->name) + " needs operands: " +
                 cmd->operands);
  }
  if (!variadic && operands.size() > spelled.size()) {
    fail_require("unexpected positional argument '" +
                 operands[spelled.size()] + "'" +
                 (subs.empty() ? "" : " (subcommands: " + subs + ")"));
  }
  std::vector<std::string> known = words(cmd->flags);
  for (std::string& flag : words(kCommonFlags)) known.push_back(flag);
  args.require_known(known);
  return cmd->run(args);
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
