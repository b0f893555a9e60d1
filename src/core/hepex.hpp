#pragma once
/// \file hepex.hpp
/// \brief Umbrella header: the full HEPEX public API.
///
/// HEPEX reproduces "An Approach for Energy Efficient Execution of Hybrid
/// Parallel Programs" (IPDPS 2015). Typical entry points:
///
///  - `hw::xeon_cluster()`, `hw::arm_cluster()` — the paper's Table 3.
///  - `workload::make_bt/lu/sp/cp/lb()` — the five validation programs.
///  - `trace::simulate()` — "direct measurement" on the simulated cluster.
///  - `model::characterize()` + `model::predict()` — the analytical model.
///  - `pareto::pareto_frontier()` — time-energy optimal configurations.
///  - `core::Advisor` — all of the above behind one object.
///  - `core::run()` — a Scenario as a RunReport (the CLI's command layer).

#include "core/advisor.hpp"          // IWYU pragma: export
#include "core/report.hpp"           // IWYU pragma: export
#include "core/run.hpp"              // IWYU pragma: export
#include "core/validation.hpp"       // IWYU pragma: export
#include "hw/presets.hpp"            // IWYU pragma: export
#include "model/bounds.hpp"          // IWYU pragma: export
#include "model/characterization.hpp"// IWYU pragma: export
#include "model/sensitivity.hpp"     // IWYU pragma: export
#include "model/serialize.hpp"       // IWYU pragma: export
#include "model/naive.hpp"           // IWYU pragma: export
#include "model/predictor.hpp"       // IWYU pragma: export
#include "model/whatif.hpp"          // IWYU pragma: export
#include "pareto/frontier.hpp"       // IWYU pragma: export
#include "pareto/hetero.hpp"         // IWYU pragma: export
#include "pareto/metrics.hpp"        // IWYU pragma: export
#include "trace/execution_engine.hpp"// IWYU pragma: export
#include "trace/netpipe.hpp"         // IWYU pragma: export
#include "trace/power_meter.hpp"     // IWYU pragma: export
#include "trace/profiler.hpp"        // IWYU pragma: export
#include "util/table.hpp"            // IWYU pragma: export
#include "util/units.hpp"            // IWYU pragma: export
#include "workload/programs.hpp"     // IWYU pragma: export
