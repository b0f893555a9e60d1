#pragma once
/// \file hetero.hpp
/// \brief Cross-machine Pareto analysis.
///
/// The paper demonstrates Pareto frontiers per homogeneous cluster; its
/// precursor work (Ramapantulu et al., ICPP'14 [40]) studies
/// *heterogeneous* clusters. HEPEX bridges the two: overlay the frontiers
/// of several candidate machines for the same program and ask which
/// machine — and which (n, c, f) on it — wins at each deadline or budget.
/// Typical outcome for the paper's two clusters: Xeon wins tight
/// deadlines, the low-power ARM cluster wins relaxed ones, with a
/// crossover deadline in between.

#include <optional>
#include <string>
#include <vector>

#include "pareto/frontier.hpp"

namespace hepex::pareto {

/// A configuration point tagged with the machine it belongs to.
struct LabeledPoint {
  std::string machine;
  ConfigPoint point;
};

/// One machine's evaluated configuration space.
struct MachineCandidate {
  std::string name;
  std::vector<ConfigPoint> points;
};

/// Merge several machines' spaces and extract the combined Pareto
/// frontier (sorted by time). A point survives only if no point of ANY
/// machine dominates it.
std::vector<LabeledPoint> combined_frontier(
    const std::vector<MachineCandidate>& candidates);

/// Minimum-energy machine+configuration meeting `deadline_s` across all
/// candidates; nullopt when no machine is fast enough.
std::optional<LabeledPoint> best_for_deadline(
    const std::vector<MachineCandidate>& candidates, q::Seconds deadline_s);

/// The deadline below which `a` wins (its best feasible energy beats
/// `b`'s) and above which `b` wins. Returns nullopt when one machine
/// dominates at every deadline. Deadlines are probed on a logarithmic
/// grid spanning both frontiers.
std::optional<q::Seconds> crossover_deadline(const MachineCandidate& a,
                                             const MachineCandidate& b);

}  // namespace hepex::pareto
