#pragma once
/// \file run.hpp
/// \brief The command layer: a Scenario and a Method in, the RunReport
///        and the typed result out. The CLI, hepexd, `report check` and
///        the benches build every RunReport here, so the command
///        summaries, the sink rule for measured runs and the provenance
///        fill exist once. `run` prints and writes nothing; callers print
///        the result, write the files the scenario's `obs` section names
///        and add a `host` section (`trace::stamp_host`) if they want one.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfg/scenario.hpp"
#include "core/validation.hpp"
#include "obs/registry.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_sink.hpp"
#include "pareto/frontier.hpp"
#include "trace/ensemble.hpp"
#include "trace/measurement.hpp"
#include "util/quantity.hpp"

namespace hepex::core {

class Advisor;

enum class Method {
  kAdvise,    ///< frontier (or per-point minima of a `workload.grid`)
  kSimulate,  ///< one measured run of `Scenario::single_config`
  kValidate,  ///< model-vs-measurement errors over a configuration sweep
  kFaults,    ///< a measured run, or an ensemble, under `Scenario::faults`
};

/// What a caller may lend `run` beyond the scenario.
struct RunInputs {
  /// kAdvise on one program: query this advisor, built from the same
  /// scenario (hepexd's cached one), instead of building one.
  Advisor* advisor = nullptr;
  /// kValidate: these configurations instead of `Scenario::sweep_configs`.
  std::vector<hw::ClusterConfig> configs;
};

/// One row of a synthetic-grid advise.
struct GridRow {
  std::string signature;           ///< canonical synthetic reference
  std::string program;             ///< generated program name
  pareto::ConfigPoint min_energy;  ///< the point's min-energy frontier entry
};

/// What `run` returns; only the fields of the method that ran are set.
struct RunResult {
  obs::RunReport report;  ///< without a `host` section
  q::Seconds wall{};      ///< host time of the run's work

  std::vector<pareto::ConfigPoint> frontier;  ///< kAdvise, one program
  std::vector<GridRow> grid;  ///< kAdvise, a row per grid point with a frontier
  std::optional<trace::Measurement> measurement;   ///< kSimulate, kFaults
  std::optional<trace::EnsembleSummary> ensemble;  ///< kFaults, replicas > 1
  std::optional<ValidationReport> validation;      ///< kValidate

  /// The sinks a measured run attached; null when not asked for.
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<obs::TraceSink> trace;
};

/// Run `scenario` as `method`. The report's `command` is the method's
/// name ("advise", "simulate", "validate", "faults"); a caller producing
/// it under another name relabels `report.command`. A measured run
/// attaches a metrics Registry when the scenario names a report or a
/// metrics file, a SpanAggregator when it names a report, and a
/// TraceSink when it names a trace; none of them changes the results.
/// kValidate seeds the characterization baselines from the scenario's
/// sim settings. kFaults needs `Scenario::config` and a non-empty
/// `Scenario::faults`.
RunResult run(const cfg::Scenario& scenario, Method method,
              const RunInputs& inputs = {});

}  // namespace hepex::core
