#pragma once
/// \file frontier.hpp
/// \brief Time-energy Pareto analysis over the configuration space (§V-A).
///
/// Every configuration (n, c, f) maps to a point in the time-energy
/// plane. A configuration is *Pareto-optimal* when no other configuration
/// is at least as fast and at least as frugal (and strictly better in one
/// dimension). The frontier answers both of the paper's questions:
/// minimum energy under an execution-time deadline, and minimum time
/// under an energy budget.

#include <optional>
#include <vector>

#include "hw/machine.hpp"
#include "util/quantity.hpp"
#include "model/predictor.hpp"

namespace hepex::pareto {

/// One evaluated configuration in the time-energy plane.
struct ConfigPoint {
  hw::ClusterConfig config;
  q::Seconds time_s{};
  q::Joules energy_j{};
  double ucr = 0.0;  ///< useful computation ratio at this configuration
};

/// True when `a` dominates `b`: a is no worse in both time and energy and
/// strictly better in at least one.
bool dominates(const ConfigPoint& a, const ConfigPoint& b);

/// Extract the Pareto-optimal subset, sorted by ascending time.
/// Duplicate (time, energy) points keep a single representative.
std::vector<ConfigPoint> pareto_frontier(std::vector<ConfigPoint> points);

/// The minimum-energy point, the first of equals; null when empty.
const ConfigPoint* min_energy(const std::vector<ConfigPoint>& points);

/// Minimum-energy configuration meeting `deadline_s`; nullopt when no
/// configuration is fast enough.
std::optional<ConfigPoint> min_energy_within_deadline(
    const std::vector<ConfigPoint>& points, q::Seconds deadline_s);

/// Minimum-time configuration within `budget_j`; nullopt when no
/// configuration is frugal enough.
std::optional<ConfigPoint> min_time_within_budget(
    const std::vector<ConfigPoint>& points, q::Joules budget_j);

/// Evaluate the model over a set of configurations, on up to `jobs`
/// threads (par::resolve_jobs semantics; 0 = configured default, 1 =
/// serial). The result is bit-identical at any job count: each point is
/// an independent model evaluation landing at its input's index.
std::vector<ConfigPoint> sweep_model(const model::Characterization& ch,
                                     const model::TargetInfo& target,
                                     const std::vector<hw::ClusterConfig>& cfgs,
                                     int jobs = 0);

/// Evaluate the model over the machine's full model configuration space.
/// Same determinism guarantee as `sweep_model`.
std::vector<ConfigPoint> sweep_model_space(const model::Characterization& ch,
                                           const model::TargetInfo& target,
                                           int jobs = 0);

/// The frontier's knee: the point with maximum normalized distance from
/// the straight line between the frontier's endpoints — the "best
/// trade-off" configuration when the user has neither a hard deadline
/// nor a hard budget. `frontier` must be a Pareto frontier (sorted by
/// time, energy strictly decreasing); throws when empty. For frontiers
/// of one or two points, returns the first point.
ConfigPoint knee_point(const std::vector<ConfigPoint>& frontier);

}  // namespace hepex::pareto
