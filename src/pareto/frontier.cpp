#include "pareto/frontier.hpp"

#include <algorithm>
#include <limits>

#include "obs/profiler.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"

namespace hepex::pareto {

bool dominates(const ConfigPoint& a, const ConfigPoint& b) {
  if (a.time_s > b.time_s || a.energy_j > b.energy_j) return false;
  return a.time_s < b.time_s || a.energy_j < b.energy_j;
}

std::vector<ConfigPoint> pareto_frontier(std::vector<ConfigPoint> points) {
  HEPEX_PROFILE_SCOPE("pareto.frontier");
  // Sort by time, breaking ties by energy; then a single pass keeps the
  // points whose energy strictly improves on everything faster.
  std::sort(points.begin(), points.end(),
            [](const ConfigPoint& a, const ConfigPoint& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.energy_j < b.energy_j;
            });
  std::vector<ConfigPoint> frontier;
  q::Joules best_energy{std::numeric_limits<double>::infinity()};
  q::Seconds last_time{-1.0};
  for (const auto& p : points) {
    if (p.energy_j < best_energy) {
      if (!frontier.empty() && p.time_s == last_time) continue;
      frontier.push_back(p);
      best_energy = p.energy_j;
      last_time = p.time_s;
    }
  }
  return frontier;
}

const ConfigPoint* min_energy(const std::vector<ConfigPoint>& points) {
  const ConfigPoint* best = nullptr;
  for (const auto& p : points) {
    if (best == nullptr || p.energy_j < best->energy_j) best = &p;
  }
  return best;
}

std::optional<ConfigPoint> min_energy_within_deadline(
    const std::vector<ConfigPoint>& points, q::Seconds deadline_s) {
  HEPEX_REQUIRE(deadline_s > q::Seconds{}, "deadline must be positive");
  std::optional<ConfigPoint> best;
  for (const auto& p : points) {
    if (p.time_s > deadline_s) continue;
    if (!best || p.energy_j < best->energy_j ||
        (p.energy_j == best->energy_j && p.time_s < best->time_s)) {
      best = p;
    }
  }
  return best;
}

std::optional<ConfigPoint> min_time_within_budget(
    const std::vector<ConfigPoint>& points, q::Joules budget_j) {
  HEPEX_REQUIRE(budget_j > q::Joules{}, "energy budget must be positive");
  std::optional<ConfigPoint> best;
  for (const auto& p : points) {
    if (p.energy_j > budget_j) continue;
    if (!best || p.time_s < best->time_s ||
        (p.time_s == best->time_s && p.energy_j < best->energy_j)) {
      best = p;
    }
  }
  return best;
}

std::vector<ConfigPoint> sweep_model(const model::Characterization& ch,
                                     const model::TargetInfo& target,
                                     const std::vector<hw::ClusterConfig>& cfgs,
                                     int jobs) {
  HEPEX_PROFILE_SCOPE("pareto.sweep_model");
  // parallel_map preserves index order and each evaluation is
  // independent, so any job count reproduces the serial vector exactly.
  return par::parallel_map(
      cfgs,
      [&](const hw::ClusterConfig& cfg) {
        const model::Prediction p = model::predict(ch, target, cfg);
        return ConfigPoint{cfg, p.time_s, p.energy_j, p.ucr};
      },
      jobs);
}

std::vector<ConfigPoint> sweep_model_space(const model::Characterization& ch,
                                           const model::TargetInfo& target,
                                           int jobs) {
  return sweep_model(ch, target, hw::model_config_space(ch.machine), jobs);
}

ConfigPoint knee_point(const std::vector<ConfigPoint>& frontier) {
  HEPEX_REQUIRE(!frontier.empty(), "frontier is empty");
  if (frontier.size() <= 2) return frontier.front();

  // Normalize both axes to [0, 1] so the knee is scale-invariant, then
  // maximize the distance to the endpoint chord.
  const q::Seconds t0 = frontier.front().time_s;
  const q::Seconds t1 = frontier.back().time_s;
  const q::Joules e0 = frontier.front().energy_j;
  const q::Joules e1 = frontier.back().energy_j;
  const q::Seconds dt = std::max(q::Seconds{1e-300}, t1 - t0);
  const q::Joules de = std::max(q::Joules{1e-300}, e0 - e1);

  const ConfigPoint* best = &frontier.front();
  double best_dist = -1.0;
  for (const auto& p : frontier) {
    const double x = (p.time_s - t0) / dt;       // 0 at fast end
    const double y = (p.energy_j - e1) / de;     // 0 at frugal end
    // Chord runs from (0, 1) to (1, 0); distance ~ (1 - x - y)/sqrt(2).
    const double dist = 1.0 - x - y;
    if (dist > best_dist) {
      best_dist = dist;
      best = &p;
    }
  }
  return *best;
}

}  // namespace hepex::pareto
