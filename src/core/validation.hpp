#pragma once
/// \file validation.hpp
/// \brief Model-vs-measurement validation harness (the paper's §IV).
///
/// For each configuration: run the program on the simulated cluster
/// ("direct measurement" through the `time` command and the WattsUp
/// meter), evaluate the analytical model, and report the percentage
/// errors. Aggregating over a configuration sweep yields the paper's
/// Table 2 (mean and standard deviation of the error per program and
/// cluster).

#include <vector>

#include "hw/machine.hpp"
#include "model/characterization.hpp"
#include "util/quantity.hpp"
#include "util/statistics.hpp"
#include "workload/program.hpp"

namespace hepex::core {

/// Measured-vs-predicted numbers for one configuration.
struct ValidationRow {
  hw::ClusterConfig config;
  q::Seconds measured_time_s{};
  q::Seconds predicted_time_s{};
  q::Joules measured_energy_j{};
  q::Joules predicted_energy_j{};
  double time_error_pct = 0.0;    ///< |pred - meas| / meas * 100
  double energy_error_pct = 0.0;
  double measured_ucr = 0.0;
  double predicted_ucr = 0.0;
};

/// A full validation sweep for one (machine, program) pair.
struct ValidationReport {
  std::vector<ValidationRow> rows;
  util::Summary time_error;    ///< absolute % errors across rows
  util::Summary energy_error;
};

/// Validate `program` on `machine` over `configs`. The characterization
/// is built once (from the baseline class in `options`); each config is
/// then simulated and metered, and compared against the model.
///
/// The per-config simulations run on up to `jobs` threads
/// (par::resolve_jobs semantics; 0 = configured default). Each run has
/// its own derived seed, and metering/aggregation stay serial in config
/// order, so the report is bit-identical at any job count. When
/// `options.sim` carries a trace or metrics sink the sweep is forced
/// serial — sinks are single-consumer.
ValidationReport validate(const hw::MachineSpec& machine,
                          const workload::ProgramSpec& program,
                          const std::vector<hw::ClusterConfig>& configs,
                          const model::CharacterizationOptions& options = {},
                          int jobs = 0);

/// The paper's validation grid: n in {2,4,8} (plus optionally 1),
/// c over all cores, f over all DVFS points — 96 Xeon / 80 ARM configs
/// when `include_single_node` is false.
std::vector<hw::ClusterConfig> validation_grid(const hw::MachineSpec& machine,
                                               bool include_single_node);

}  // namespace hepex::core
