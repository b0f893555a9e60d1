#pragma once
/// \file run_report.hpp
/// \brief Schema-versioned per-run provenance + attribution artifact.
///
/// A `RunReport` (schema `hepex-run-report/1`) is the durable record of
/// one CLI or bench run: where it came from (the canonical-bytes scenario
/// fingerprint and the embedded scenario itself), what it produced (time,
/// energy, UCR, outcome), where the time and energy went (per-category
/// and per-node attribution, streaming span statistics), the full
/// metrics-registry snapshot, and how fast the host simulated it. The
/// paper's argument is an energy-accounting claim; this artifact is the
/// machine-comparable form of that accounting — `hepex report diff`
/// compares two of them field by field, `hepex report check` gates a
/// candidate against a committed baseline (BENCH_perf.json).
///
/// Everything except the `host` section is a deterministic function of
/// the scenario: virtual-time metrics come from the seeded simulator, and
/// serialization rides `util::json` (insertion-ordered objects, shortest
/// round-trip numbers), so load→save→load is bit-identical and the
/// non-host bytes golden-pin cleanly. The `host` section (wall seconds,
/// events per host second, profiler timers) is the one machine-dependent
/// part; `check` treats it separately with its own tolerance.
///
/// Attribution category semantics (docs/observability.md):
///  - compute: cores executing work cycles (EnergyBreakdown::cpu_active_j)
///  - memory:  core-side memory stalls + DRAM controller energy
///  - network: NIC wire energy; time is stack + wire busy seconds
///  - barrier: barrier-wait wall seconds; energy 0 by construction —
///    waiting cores draw only the static floor, which `idle` carries
///  - fault:   checkpoint/rework/straggler energy (fault_j) and T_fault
///  - idle:    the system idle floor P_sys,idle * T * n
/// The six energy entries sum to EnergyBreakdown::total() exactly (same
/// addends, one regrouping — within 1e-9 relative, pinned by tests).

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/schemas.hpp"

namespace hepex::obs {

inline constexpr const char* kRunReportSchema = util::schemas::kRunReport;

/// One complete run artifact. Plain data; builders live in
/// `trace::build_run_report` (which knows scenarios and measurements).
struct RunReport {
  std::string command;  ///< producing command ("simulate", "faults", ...)
  std::string name;     ///< scenario label ("" = unnamed)

  // --- provenance ---------------------------------------------------------
  std::string scenario_fingerprint;  ///< util::fingerprint of canonical bytes
  std::string platform_preset;       ///< registry key ("xeon", ...)
  std::string machine;               ///< resolved machine name
  std::string program;               ///< workload registry key
  std::string input_class;           ///< "S", "W", "A", ...
  int nodes = 0;                     ///< single-run n (0 = no single config)
  int cores = 0;                     ///< single-run c
  double f_ghz = 0.0;                ///< single-run f [GHz]
  std::uint64_t seed = 0;
  int replicas = 1;
  int jobs = 0;
  /// The canonical scenario document itself (object), so a report is
  /// self-contained: `report check FILE` can re-run it. Null when the
  /// producer chose not to embed.
  util::json::Value scenario;

  // --- results (absent for frontier-style commands) -----------------------
  bool has_results = false;
  double time_s = 0.0;
  double energy_j = 0.0;
  double ucr = 0.0;
  double cpu_utilization = 0.0;
  double iterations = 0.0;
  double events_processed = 0.0;
  double events_per_virtual_s = 0.0;
  std::string outcome;  ///< "completed" | "aborted"

  // --- attribution --------------------------------------------------------
  /// Fixed category order: compute, memory, network, barrier, fault, idle.
  struct Category {
    std::string name;
    double energy_j = 0.0;
    double time_s = 0.0;
  };
  std::vector<Category> attribution;  ///< empty = section absent

  struct NodeRow {
    int node = 0;
    double compute_s = 0.0;
    double memory_s = 0.0;
    double network_s = 0.0;
    double barrier_s = 0.0;
    double energy_j = 0.0;  ///< node-attributable energy (cpu+mem+idle)
  };
  std::vector<NodeRow> per_node;

  util::json::Value spans;    ///< SpanAggregator snapshot; null when absent
  util::json::Value metrics;  ///< Registry snapshot; null when absent
  util::json::Value summary;  ///< command-specific extras; null when absent

  // --- host (machine-dependent; excluded from determinism pins) -----------
  bool has_host = false;
  double host_wall_s = 0.0;
  double host_events_per_s = 0.0;  ///< simulator events per host second
  struct HostTimer {
    std::string name;
    double calls = 0.0;
    double total_s = 0.0;
    double max_s = 0.0;
  };
  std::vector<HostTimer> host_profile;  ///< sorted by name (determinism)

  /// Sum of the attribution categories' energy entries.
  double attribution_energy_total() const;

  /// Canonical JSON document (insertion-ordered, schema first). The
  /// rvalue overload moves `scenario`, `spans`, `metrics` and `summary`
  /// into the document instead of copying them; the lvalue one copies the
  /// report and delegates, so both write the same bytes.
  util::json::Value to_json_value() const& {
    return RunReport(*this).to_json_value();
  }
  util::json::Value to_json_value() &&;

  /// Schema-check and read a parsed document. Throws
  /// std::invalid_argument with `<source>: ...` on a malformed document
  /// or a schema mismatch.
  static RunReport from_json_value(const util::json::Value& doc,
                                   const std::string& source = "report");

  /// File round trip; the file holds `util::json::dump` of the canonical
  /// document (two-space indent, trailing newline). `load_file` throws
  /// std::runtime_error on I/O failure; parse errors as in
  /// `from_json_value`.
  static RunReport load_file(const std::string& path);
  void save_file(const std::string& path) const;
};

// --- diff ------------------------------------------------------------------

/// One leaf-level difference between two reports.
struct ReportDelta {
  std::string path;  ///< dotted field path ("results.time_s", ...)
  bool numeric = false;
  bool only_a = false;  ///< present in a, absent in b
  bool only_b = false;
  double a = 0.0;
  double b = 0.0;
  double rel = 0.0;  ///< |b-a| / max(|a|,|b|); 0 when both are 0
  std::string text_a;  ///< non-numeric leaves rendered as compact JSON
  std::string text_b;
};

/// Leaf-by-leaf comparison of the two canonical documents. Equal leaves
/// are skipped; objects walk in a's insertion order with b-only keys
/// appended, arrays by index. The `host` section participates like any
/// other — callers that want a machine-independent diff strip it first.
std::vector<ReportDelta> diff_reports(const RunReport& a,
                                      const RunReport& b);

// --- check -----------------------------------------------------------------

struct CheckOptions {
  /// Relative tolerance for the deterministic (virtual-time) metrics:
  /// results, attribution energies. These are seeded-simulator outputs,
  /// so anything beyond libm-level drift is a real regression.
  double rtol = 1e-9;
  /// One-sided tolerance for host event throughput: the candidate fails
  /// when its events/s drop more than this fraction below the baseline.
  double throughput_tolerance = 0.15;
  /// Gate the host section at all (CI disables this when comparing a
  /// fresh report against a baseline recorded on different hardware).
  bool check_host = true;
};

struct CheckItem {
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel = 0.0;    ///< relative deviation actually observed
  double limit = 0.0;  ///< tolerance applied
  bool one_sided = false;
  bool pass = true;
};

struct CheckResult {
  bool pass = true;
  std::string note;  ///< non-metric failure (fingerprint mismatch, ...)
  std::vector<CheckItem> items;
};

/// Gate `candidate` against `baseline`: deterministic metrics within
/// `rtol`, host throughput within `throughput_tolerance` (one-sided,
/// slower fails). A scenario-fingerprint mismatch fails outright — the
/// two reports do not describe the same run.
CheckResult check_reports(const RunReport& baseline,
                          const RunReport& candidate,
                          const CheckOptions& opts = {});

}  // namespace hepex::obs
