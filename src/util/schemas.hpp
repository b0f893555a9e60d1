#pragma once
/// \file schemas.hpp
/// \brief The single registry of `"hepex-*/N"` schema identifiers.
///
/// Every versioned artifact and wire format in the tree names its schema
/// with a `"hepex-<kind>/<version>"` string. Those strings are load-
/// bearing compatibility contracts: a writer and a reader that disagree
/// on one byte silently stop interoperating. This header is the one
/// place a schema identifier may be spelled as a literal — everywhere
/// else must reference these constants, enforced by `hepex_lint`'s
/// `schema-literal` rule (docs/static-analysis.md). Bumping a version is
/// therefore a one-line, grep-free change whose blast radius the
/// compiler reports.
///
/// The long-standing public names (`cfg::kScenarioSchema`,
/// `obs::kRunReportSchema`, `svc::kRequestSchema`, ...) stay valid; they
/// are aliases of these constants now.

namespace hepex::util::schemas {

// Declarative run configuration (docs/scenarios.md).
inline constexpr const char* kScenario = "hepex-scenario/1";

// Serialized characterization artifact (docs/model.md).
inline constexpr const char* kCharacterizationV2 = "hepex-characterization/2";

// RunReport provenance artifact (docs/observability.md).
inline constexpr const char* kRunReport = "hepex-run-report/1";

// Workload trace format: compute-burst / memory-op / message / barrier
// records replayed onto the execution engine (docs/workloads.md).
inline constexpr const char* kTrace = "hepex-trace/1";

// hepexd wire protocol + operational artifacts (docs/service.md).
inline constexpr const char* kSvcRequest = "hepex-svc-request/1";
inline constexpr const char* kSvcResponse = "hepex-svc-response/1";
inline constexpr const char* kSvcStats = "hepex-svc-stats/1";
inline constexpr const char* kChaosPlan = "hepex-chaos-plan/1";

// Machine-readable bench outputs (docs/performance.md).
inline constexpr const char* kBenchPerf = "hepex-bench-perf/1";
inline constexpr const char* kBenchService = "hepex-bench-service/1";

}  // namespace hepex::util::schemas
