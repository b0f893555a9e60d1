#include "core/validation.hpp"

#include <cstddef>

#include "model/predictor.hpp"
#include "par/thread_pool.hpp"
#include "trace/execution_engine.hpp"
#include "trace/power_meter.hpp"
#include "util/error.hpp"

namespace hepex::core {

ValidationReport validate(const hw::MachineSpec& machine,
                          const workload::ProgramSpec& program,
                          const std::vector<hw::ClusterConfig>& configs,
                          const model::CharacterizationOptions& options,
                          int jobs) {
  HEPEX_REQUIRE(!configs.empty(), "validation needs at least one config");

  const model::Characterization ch =
      model::characterize(machine, program, options);
  const model::TargetInfo target = model::target_of(program);
  trace::PowerMeter meter(machine, options.meter_seed);

  // Each configuration's "physical run" carries its own seed, so the
  // simulations are fully independent and can run on pool workers. The
  // meter, in contrast, is one stateful RNG stream shared across rows —
  // it must consume measurements serially, in index order, for the
  // report to be bit-identical to the serial sweep. Observability sinks
  // in `options.sim` are single-consumer objects, so their presence
  // forces the serial path.
  std::vector<trace::Measurement> runs(configs.size());
  const auto run_one = [&](std::size_t i) {
    trace::SimOptions sim_opt = options.sim;
    sim_opt.seed = options.sim.seed + 0x9E37u * (i + 1);
    runs[i] = trace::simulate(machine, program, configs[i], sim_opt);
  };
  if (options.sim.has_sinks()) {
    for (std::size_t i = 0; i < configs.size(); ++i) run_one(i);
  } else {
    par::parallel_for(configs.size(), run_one, jobs);
  }

  ValidationReport report;
  report.rows.reserve(configs.size());

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const hw::ClusterConfig& cfg = configs[i];
    const trace::Measurement& meas = runs[i];
    const trace::MeterReading reading = meter.read(meas);
    const model::Prediction pred = model::predict(ch, target, cfg);

    ValidationRow row;
    row.config = cfg;
    row.measured_time_s = reading.time_s;
    row.predicted_time_s = pred.time_s;
    row.measured_energy_j = reading.energy_j;
    row.predicted_energy_j = pred.energy_j;
    row.time_error_pct = util::absolute_percentage_error(
        pred.time_s.value(), reading.time_s.value());
    row.energy_error_pct = util::absolute_percentage_error(
        pred.energy_j.value(), reading.energy_j.value());
    row.measured_ucr = meas.ucr();
    row.predicted_ucr = pred.ucr;

    report.time_error.add(row.time_error_pct);
    report.energy_error.add(row.energy_error_pct);
    report.rows.push_back(row);
  }
  return report;
}

std::vector<hw::ClusterConfig> validation_grid(const hw::MachineSpec& machine,
                                               bool include_single_node) {
  std::vector<int> nodes;
  if (include_single_node) nodes.push_back(1);
  for (int n = 2; n <= machine.nodes_available; n *= 2) nodes.push_back(n);
  return hw::enumerate_configs(machine, nodes);
}

}  // namespace hepex::core
