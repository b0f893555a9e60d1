#pragma once
/// \file run_report.hpp
/// \brief Scenario-aware RunReport builders.
///
/// `obs::RunReport` is plain data that depends only on `util`; this is
/// the layer that knows how to fill one in — from a `cfg::Scenario` (the
/// provenance half: canonical bytes, fingerprint, identity) and a
/// `trace::Measurement` (the results half: totals, per-category and
/// per-node attribution). `core::run` calls these for the CLI, hepexd,
/// `hepex report check` and the benches.
///
/// The attribution regrouping (documented in run_report.hpp and
/// docs/observability.md) maps EnergyBreakdown onto the six categories:
///   compute <- cpu_active_j        memory  <- cpu_stall_j + mem_j
///   network <- net_j               barrier <- 0 (floor power is idle's)
///   fault   <- fault_j             idle    <- idle_j
/// The six entries are the same addends as EnergyBreakdown::total(), so
/// their sum matches the total to within accumulation-order rounding
/// (pinned at 1e-9 relative by tests/trace/test_run_report.cpp).

#include <string>

#include "cfg/scenario.hpp"
#include "obs/run_report.hpp"
#include "trace/measurement.hpp"

namespace hepex::obs {
class Registry;
class SpanAggregator;
}  // namespace hepex::obs

namespace hepex::trace {

/// Everything a builder may attach beyond scenario + measurement. All
/// pointers are non-owning and may be null (their sections are omitted).
struct RunReportOptions {
  std::string command = "simulate";     ///< producing CLI command
  const obs::Registry* metrics = nullptr;
  const obs::SpanAggregator* spans = nullptr;
  util::json::Value summary;            ///< command extras; null = none
  /// Host wall seconds of the producing run; <= 0 omits the `host`
  /// section entirely (keeps golden pins machine-independent).
  double host_wall_s = 0.0;
  /// Include the enabled Profiler's timers in `host.profile`.
  bool host_profile = true;
};

/// Provenance-only report: scenario identity, fingerprint and the
/// embedded canonical document; no results/attribution. The base other
/// builders extend.
obs::RunReport build_run_report(const cfg::Scenario& s,
                                const RunReportOptions& opts);

/// Full report for one measured run of the scenario's configuration:
/// results, per-category energy/time attribution and per-node rows, plus
/// whatever `opts` attaches.
obs::RunReport build_run_report(const cfg::Scenario& s,
                                const Measurement& meas,
                                const RunReportOptions& opts);

/// Add the `host` section: host wall seconds, host event throughput (from
/// `metrics`' `sim.events_processed`, when given) and the enabled
/// Profiler's timers. No-op when `host_wall_s <= 0`.
void stamp_host(obs::RunReport& r, double host_wall_s,
                const obs::Registry* metrics, bool profile = true);

}  // namespace hepex::trace
