#include "trace/run_report.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span_agg.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "workload/program.hpp"

namespace hepex::trace {

namespace {

void fill_common(obs::RunReport& r, const cfg::Scenario& s,
                 const RunReportOptions& opts) {
  r.command = opts.command;
  r.name = s.name;

  // Canonicalize with the sink output paths cleared: under the
  // zero-perturbation contract, where (or whether) trace/metrics/report
  // files are written never changes results, so output paths are not
  // part of the run's identity — and the report path in particular would
  // otherwise make the fingerprint depend on the artifact's own
  // filename.
  cfg::Scenario canon = s;
  canon.obs.trace_path.clear();
  canon.obs.metrics_path.clear();
  canon.obs.report_path.clear();
  r.scenario = cfg::scenario_to_json(canon);
  // Pool width is excluded from the identity too: results are identical
  // at any --jobs N, and a baseline captured at one width must be able
  // to gate a rerun pinned to another. The embedded scenario still
  // records the width actually used; at width 0 it is the identity.
  if (canon.jobs == 0) {
    r.scenario_fingerprint = util::fingerprint(util::json::dump(r.scenario));
  } else {
    canon.jobs = 0;
    r.scenario_fingerprint = util::fingerprint(cfg::save_scenario(canon));
  }
  r.platform_preset = s.platform_preset;
  r.machine = s.machine.name;
  r.program = s.program_name;
  r.input_class = workload::to_string(s.input);
  r.seed = s.sim.seed;
  r.replicas = s.sim.replicas;
  r.jobs = s.jobs;

  if (opts.metrics != nullptr) r.metrics = opts.metrics->to_json_value();
  if (opts.spans != nullptr && !opts.spans->empty()) {
    r.spans = opts.spans->to_json_value();
  }
  if (opts.summary.is_object()) r.summary = opts.summary;

  stamp_host(r, opts.host_wall_s, opts.metrics, opts.host_profile);
}

}  // namespace

obs::RunReport build_run_report(const cfg::Scenario& s,
                                const RunReportOptions& opts) {
  obs::RunReport r;
  fill_common(r, s, opts);
  if (s.config.has_value()) {
    r.nodes = s.config->nodes;
    r.cores = s.config->cores;
    r.f_ghz = s.config->f_hz.value() / 1e9;
  }
  return r;
}

obs::RunReport build_run_report(const cfg::Scenario& s,
                                const Measurement& meas,
                                const RunReportOptions& opts) {
  obs::RunReport r;
  fill_common(r, s, opts);
  r.nodes = meas.config.nodes;
  r.cores = meas.config.cores;
  r.f_ghz = meas.config.f_hz.value() / 1e9;

  r.has_results = true;
  r.time_s = meas.time_s.value();
  r.energy_j = meas.energy.total().value();
  r.ucr = meas.ucr();
  r.cpu_utilization = meas.cpu_utilization;
  r.iterations = static_cast<double>(meas.iteration_s.count());
  if (opts.metrics != nullptr) {
    if (const obs::Counter* c =
            opts.metrics->find_counter("sim.events_processed")) {
      r.events_processed = static_cast<double>(c->value());
    }
    if (const obs::Gauge* g =
            opts.metrics->find_gauge("sim.events_per_virtual_s")) {
      r.events_per_virtual_s = g->value();
    }
  }
  r.outcome = meas.completed() ? "completed" : "aborted";

  // Category seconds: node-attributable activities sum over the rows;
  // network adds the shared wire busy time; idle spans the whole run.
  double compute_s = 0.0;
  double memory_s = 0.0;
  double comm_s = 0.0;
  double barrier_s = 0.0;
  for (const NodeUsage& nu : meas.per_node) {
    compute_s += nu.compute_s.value();
    memory_s += nu.stall_s.value();
    comm_s += nu.comm_s.value();
    barrier_s += nu.barrier_s.value();
  }
  const auto& e = meas.energy;
  r.attribution = {
      {"compute", e.cpu_active_j.value(), compute_s},
      {"memory", (e.cpu_stall_j + e.mem_j).value(), memory_s},
      {"network", e.net_j.value(), comm_s + meas.net_busy_s.value()},
      {"barrier", 0.0, barrier_s},
      {"fault", e.fault_j.value(), meas.t_fault_s.value()},
      {"idle", e.idle_j.value(), meas.time_s.value()},
  };

  for (std::size_t i = 0; i < meas.per_node.size(); ++i) {
    const NodeUsage& nu = meas.per_node[i];
    obs::RunReport::NodeRow row;
    row.node = static_cast<int>(i);
    row.compute_s = nu.compute_s.value();
    row.memory_s = nu.stall_s.value();
    row.network_s = nu.comm_s.value();
    row.barrier_s = nu.barrier_s.value();
    row.energy_j =
        (nu.cpu_active_j + nu.cpu_stall_j + nu.mem_j + nu.idle_j).value();
    r.per_node.push_back(row);
  }
  return r;
}

void stamp_host(obs::RunReport& r, double host_wall_s,
                const obs::Registry* metrics, bool profile) {
  if (host_wall_s <= 0.0) return;
  r.has_host = true;
  r.host_wall_s = host_wall_s;
  if (metrics != nullptr) {
    if (const obs::Counter* c = metrics->find_counter("sim.events_processed")) {
      r.host_events_per_s = static_cast<double>(c->value()) / host_wall_s;
    }
  }
  if (profile && obs::Profiler::instance().enabled()) {
    auto entries = obs::Profiler::instance().entries();
    // entries() sorts by descending total; the artifact sorts by name so
    // the bytes do not depend on host timing.
    std::sort(entries.begin(), entries.end(),
              [](const obs::Profiler::Entry& a,
                 const obs::Profiler::Entry& b) { return a.name < b.name; });
    for (const auto& e : entries) {
      r.host_profile.push_back(
          {e.name, static_cast<double>(e.calls), e.total_s, e.max_s});
    }
  }
}

}  // namespace hepex::trace
