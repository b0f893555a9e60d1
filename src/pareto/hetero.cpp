#include "pareto/hetero.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace hepex::pareto {

std::vector<LabeledPoint> combined_frontier(
    const std::vector<MachineCandidate>& candidates) {
  HEPEX_REQUIRE(!candidates.empty(), "need at least one machine");
  std::vector<LabeledPoint> all;
  for (const auto& c : candidates) {
    for (const auto& p : c.points) all.push_back(LabeledPoint{c.name, p});
  }
  std::sort(all.begin(), all.end(),
            [](const LabeledPoint& a, const LabeledPoint& b) {
              if (a.point.time_s != b.point.time_s) {
                return a.point.time_s < b.point.time_s;
              }
              if (a.point.energy_j != b.point.energy_j) {
                return a.point.energy_j < b.point.energy_j;
              }
              // Total order: when two machines offer an identical
              // (time, energy) point, the label that survives into the
              // frontier must be a function of the data, not of
              // std::sort internals or candidate order.
              return a.machine < b.machine;
            });
  std::vector<LabeledPoint> frontier;
  q::Joules best_energy{std::numeric_limits<double>::infinity()};
  q::Seconds last_time{-1.0};
  for (auto& lp : all) {
    if (lp.point.energy_j < best_energy) {
      if (!frontier.empty() && lp.point.time_s == last_time) continue;
      best_energy = lp.point.energy_j;
      last_time = lp.point.time_s;
      frontier.push_back(std::move(lp));
    }
  }
  return frontier;
}

std::optional<LabeledPoint> best_for_deadline(
    const std::vector<MachineCandidate>& candidates, q::Seconds deadline_s) {
  HEPEX_REQUIRE(deadline_s > q::Seconds{}, "deadline must be positive");
  std::optional<LabeledPoint> best;
  for (const auto& c : candidates) {
    const auto r = min_energy_within_deadline(c.points, deadline_s);
    if (!r) continue;
    if (!best || r->energy_j < best->point.energy_j) {
      best = LabeledPoint{c.name, *r};
    }
  }
  return best;
}

std::optional<q::Seconds> crossover_deadline(const MachineCandidate& a,
                                             const MachineCandidate& b) {
  HEPEX_REQUIRE(!a.points.empty() && !b.points.empty(),
                "machines need evaluated points");
  q::Seconds t_min{std::numeric_limits<double>::infinity()};
  q::Seconds t_max{};
  for (const auto* c : {&a, &b}) {
    for (const auto& p : c->points) {
      t_min = std::min(t_min, p.time_s);
      t_max = std::max(t_max, p.time_s);
    }
  }
  // Probe deadlines log-uniformly; record who wins at each.
  auto winner = [&](q::Seconds deadline) -> int {
    const auto ra = min_energy_within_deadline(a.points, deadline);
    const auto rb = min_energy_within_deadline(b.points, deadline);
    if (ra && (!rb || ra->energy_j <= rb->energy_j)) return 0;
    if (rb) return 1;
    return -1;  // neither feasible
  };
  constexpr int kProbes = 200;
  int prev = -1;
  q::Seconds prev_deadline{};
  for (int i = 0; i <= kProbes; ++i) {
    const q::Seconds d =
        t_min * std::pow(t_max / t_min, static_cast<double>(i) / kProbes);
    const int w = winner(d);
    if (w < 0) continue;
    if (prev >= 0 && w != prev) {
      return 0.5 * (prev_deadline + d);
    }
    prev = w;
    prev_deadline = d;
  }
  return std::nullopt;
}

}  // namespace hepex::pareto
