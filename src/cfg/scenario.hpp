#pragma once
/// \file scenario.hpp
/// \brief The declarative Scenario spine: one schema-versioned document
///        that builds every HEPEX run.
///
/// A `Scenario` aggregates everything a run needs — platform, workload,
/// sweep space `(n, c, f)`, fault plan, simulator/ensemble options,
/// observability outputs and job count — as one portable, diffable JSON
/// artifact (`"schema": "hepex-scenario/1"`). Every construction path in
/// the repo goes through it: the CLI (`--scenario file.json`, remaining
/// flags layered on top), the benches (`bench::common`), the examples and
/// the scenario entry points `core::run` and
/// `core::Advisor::from_scenario`.
///
/// Reference-plus-override model: a scenario names a platform preset and
/// a program from the registries (`hw::machine_names()`, the workload
/// sources of workload/source.hpp) and optionally overrides individual
/// fields. Precedence, lowest to highest: registry default < scenario
/// field < CLI flag (see docs/scenarios.md).
///
/// Guarantees:
///  - `load` rejects unknown keys and schema-version mismatches, and
///    every error carries the full field path:
///    `scenario.json: platform.network.bandwidth: expected bandwidth
///    with unit suffix, got "10"`.
///  - load→save→load is bit-identical: `save` is canonical (registry
///    reference plus only the overridden fields, shortest round-trip
///    numbers), so `save(load(s))` is a fixed point of `save ∘ load`
///    and reload reproduces every double bit-for-bit.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "util/json.hpp"
#include "util/quantity.hpp"
#include "util/schemas.hpp"
#include "workload/program.hpp"
#include "workload/synthetic.hpp"

namespace hepex::cfg {

/// Schema tag every scenario document must carry.
inline constexpr const char* kScenarioSchema = util::schemas::kScenario;

/// Explicit sweep space; any empty axis falls back to the machine's
/// defaults (model_node_counts, 1..cores, all DVFS points).
struct SweepSpec {
  std::vector<int> nodes;
  std::vector<int> cores;
  std::vector<q::Hertz> frequencies;

  bool empty() const {
    return nodes.empty() && cores.empty() && frequencies.empty();
  }
};

/// Simulator and ensemble knobs. Mirrors the plain fields of
/// `trace::SimOptions` (cfg sits below trace in the library stack;
/// trace adapts from this).
struct SimSettings {
  int chunks_per_iteration = 12;
  double jitter_cv = 0.03;
  std::uint64_t seed = 42;
  int replicas = 1;  ///< Monte-Carlo ensemble size (1 = single run)
};

/// Observability outputs for a run. Empty strings mean "off".
struct ObsSettings {
  std::string log_level;     ///< "off|error|warn|info|debug|trace"; "" = keep
  std::string trace_path;    ///< Chrome/Perfetto timeline output file
  std::string metrics_path;  ///< metrics-registry snapshot output file
  std::string report_path;   ///< RunReport artifact output file
  bool profile = false;      ///< host-time profiler report on exit
};

/// One complete, declarative run description.
struct Scenario {
  std::string name;  ///< free-form label for reports ("" = unnamed)

  /// Platform registry key ("xeon", "arm", "modern"); empty for a fully
  /// inline machine description.
  std::string platform_preset = "xeon";
  /// The resolved machine: preset (when named) with overrides applied.
  hw::MachineSpec machine;

  /// Workload program reference: an analytic registry key ("LU", "SP",
  /// ... — the analytic source's refs()) or a source-prefixed reference
  /// ("trace:run.trace", "synthetic:ai=60" — workload/source.hpp). Empty
  /// when the scenario sweeps a synthetic grid instead.
  std::string program_name = "SP";
  workload::InputClass input = workload::InputClass::kA;
  /// The resolved program: registry spec at `input` with overrides
  /// applied (the first grid point for grid scenarios).
  workload::ProgramSpec program;
  /// Synthetic signature-space grid (`workload.grid`): the scenario fans
  /// over every expanded point instead of a single program. Mutually
  /// exclusive with `workload.program` and field overrides.
  std::optional<workload::SyntheticGrid> workload_grid;

  SweepSpec sweep;                         ///< validate space
  std::optional<hw::ClusterConfig> config; ///< single-run (n, c, f)
  std::optional<fault::Plan> faults;       ///< degraded-mode injection plan
  SimSettings sim;
  ObsSettings obs;
  int jobs = 0;  ///< worker threads for sweeps/ensembles (0 = all cores)

  /// The concrete configuration list the scenario sweeps: explicit axes
  /// where given, machine defaults otherwise. Order is n-major, then c,
  /// then f — identical to hw::model_config_space for an empty sweep.
  std::vector<hw::ClusterConfig> sweep_configs() const;

  /// The single-run configuration; when `config` is absent, defaults to
  /// (1, machine cores, f_max) — the same defaults the CLI applies.
  hw::ClusterConfig single_config() const;

  /// The programs this scenario runs: `{program}` for single-program
  /// scenarios, one generated program per grid point (expansion order,
  /// at `input`) when `workload_grid` is set.
  std::vector<workload::ProgramSpec> workload_programs() const;

  /// Cross-field validation (machine validity, program demands, fault
  /// plan against the node counts in play, sim/obs/jobs ranges). `load`
  /// runs this; call it directly on hand-built scenarios. Throws
  /// std::invalid_argument with a `scenario: <path>: ...` message.
  void validate() const;
};

/// The default scenario (the quickstart workload): SP at class A on the
/// Xeon cluster, no sweep restriction, no faults, default sim options.
Scenario default_scenario();

/// Parse and validate a scenario document. `source` names the document
/// in error messages (the CLI passes the file path). Throws
/// std::invalid_argument on malformed JSON, schema mismatch, unknown
/// keys, type errors and out-of-range values — always with the full
/// field path.
Scenario load_scenario(const std::string& text,
                       const std::string& source = "scenario");

/// `load_scenario` on an already-parsed document (a scenario embedded in
/// a larger one, such as a `hepexd` request). The same validation and
/// `source: <path>` errors, without serializing and re-parsing.
Scenario load_scenario(const util::json::Value& doc,
                       const std::string& source = "scenario");

/// A string literal is text: without this overload it would convert
/// equally well to `std::string` and to `util::json::Value`.
inline Scenario load_scenario(const char* text,
                              const std::string& source = "scenario") {
  return load_scenario(std::string(text), source);
}

/// Load a scenario from a file. Throws std::runtime_error when the file
/// cannot be read; parse/validation errors as in `load_scenario`.
Scenario load_scenario_file(const std::string& path);

/// Canonical JSON for a scenario: the registry references plus only the
/// fields that differ from what those references resolve to (bitwise
/// comparison), quantities with unit suffixes, shortest round-trip
/// numbers. `load(save(s))` reproduces `s` field-for-field bit-identically.
std::string save_scenario(const Scenario& s);

/// The document `save_scenario` prints, as a value:
/// `save_scenario(s) == util::json::dump(scenario_to_json(s))`.
util::json::Value scenario_to_json(const Scenario& s);

/// Write `save_scenario(s)` to `path`; throws std::runtime_error on I/O
/// failure.
void save_scenario_file(const Scenario& s, const std::string& path);

// --- machine/program JSON (shared with other documents) -----------------
//
// The characterization file format (schema hepex-characterization/2)
// embeds a full machine description through the machine's field list, so
// the platform schema exists exactly once.

class Reader;
class Writer;

/// The machine's field list (cfg/fields.hpp), for documents that embed a
/// machine: `v.obj(key, m...)` reads and writes it through these.
void visit(Reader& r, hw::MachineSpec& m);
void visit(Writer& w, const hw::MachineSpec& m, const hw::MachineSpec& base);

/// Full (non-diffed) JSON object for a machine description.
util::json::Value machine_to_json(const hw::MachineSpec& m);

/// Full (non-diffed) JSON object for a program description — the same
/// workload schema scenarios use for overrides (`hepex workload show`
/// prints this).
util::json::Value program_to_json(const workload::ProgramSpec& p);

}  // namespace hepex::cfg
