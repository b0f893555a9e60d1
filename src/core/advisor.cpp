#include "core/advisor.hpp"

#include <utility>

#include "cfg/scenario.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"

namespace hepex::core {

Advisor::Advisor(hw::MachineSpec machine, workload::ProgramSpec program,
                 model::CharacterizationOptions options)
    : machine_(std::move(machine)),
      program_(std::move(program)),
      options_(options) {}

Advisor Advisor::from_scenario(const cfg::Scenario& scenario,
                               model::CharacterizationOptions options) {
  return Advisor(scenario.machine, scenario.program,
                 characterization_options(scenario, options));
}

model::CharacterizationOptions characterization_options(
    const cfg::Scenario& scenario, model::CharacterizationOptions options) {
  using workload::InputClass;
  const InputClass target = scenario.program.input;
  if (target == InputClass::kS) {
    fail_require(
        "workload.class: class S has no smaller input class to "
        "characterize on; advice and validation need class W or larger");
  }
  options.baseline_class =
      target == InputClass::kW ? InputClass::kS : InputClass::kW;
  options.sim.chunks_per_iteration = scenario.sim.chunks_per_iteration;
  options.sim.jitter_cv = scenario.sim.jitter_cv;
  options.sim.seed = scenario.sim.seed;
  return options;
}

Advisor::Advisor(hw::MachineSpec machine, workload::ProgramSpec program,
                 model::CharacterizationOptions options,
                 model::Characterization prebuilt)
    : machine_(std::move(machine)),
      program_(std::move(program)),
      options_(options),
      ch_(std::move(prebuilt)) {}

const model::Characterization& Advisor::characterization() {
  if (!ch_) {
    HEPEX_PROFILE_SCOPE("advisor.characterization");
    HEPEX_LOG_INFO("advisor", "characterizing",
                   {{"machine", machine_.name}, {"program", program_.name}});
    ch_ = model::characterize(machine_, program_, options_);
  }
  return *ch_;
}

model::Prediction Advisor::predict(const hw::ClusterConfig& config) {
  return cache_.at(characterization(), model::target_of(program_), config);
}

const std::vector<pareto::ConfigPoint>& Advisor::explore() {
  if (!space_) {
    HEPEX_PROFILE_SCOPE("advisor.explore");
    // Keep the full predictions: explore_resilient re-ranks them per
    // failure-rate spec and must not pay for the model sweep again.
    predictions_ = model::predict_many(
        characterization(), model::target_of(program_),
        hw::model_config_space(characterization().machine));
    std::vector<pareto::ConfigPoint> pts;
    pts.reserve(predictions_->size());
    for (const auto& p : *predictions_) {
      pts.push_back(pareto::ConfigPoint{p.config, p.time_s, p.energy_j,
                                        p.ucr});
    }
    space_ = std::move(pts);
    HEPEX_LOG_DEBUG("advisor", "explored configuration space",
                    {{"points", space_->size()}});
  }
  return *space_;
}

const std::vector<pareto::ConfigPoint>& Advisor::frontier() {
  if (!frontier_) {
    frontier_ = pareto::pareto_frontier(explore());
  }
  return *frontier_;
}

std::optional<Recommendation> Advisor::for_deadline(q::Seconds deadline_s) {
  const auto best = pareto::min_energy_within_deadline(explore(), deadline_s);
  if (!best) return std::nullopt;
  return Recommendation{*best, deadline_s.value(),
                        (deadline_s - best->time_s).value()};
}

std::optional<Recommendation> Advisor::for_budget(q::Joules budget_j) {
  const auto best = pareto::min_time_within_budget(explore(), budget_j);
  if (!best) return std::nullopt;
  return Recommendation{*best, budget_j.value(),
                        (budget_j - best->energy_j).value()};
}

std::vector<pareto::ConfigPoint> Advisor::explore_resilient(
    const model::ResilienceSpec& spec) {
  spec.validate();
  HEPEX_PROFILE_SCOPE("advisor.explore_resilient");
  explore();  // fills predictions_
  // Adjust every cached prediction in parallel (each adjustment is an
  // independent closed form), then filter serially in index order so the
  // result matches the serial loop byte for byte.
  const auto adjusted = par::parallel_map(
      *predictions_, [&](const model::Prediction& p) {
        return model::apply_resilience(p, machine_.node.power, spec);
      });
  std::vector<pareto::ConfigPoint> out;
  out.reserve(adjusted.size());
  for (const auto& a : adjusted) {
    if (!a) continue;  // no forward progress at this failure rate
    out.push_back(
        pareto::ConfigPoint{a->config, a->time_s, a->energy_j, a->ucr});
  }
  HEPEX_LOG_DEBUG("advisor", "resilient space",
                  {{"feasible", out.size()},
                   {"total", explore().size()},
                   {"node_mtbf_s", spec.node_mtbf_s}});
  return out;
}

std::vector<pareto::ConfigPoint> Advisor::resilient_frontier(
    const model::ResilienceSpec& spec) {
  return pareto::pareto_frontier(explore_resilient(spec));
}

pareto::ConfigPoint Advisor::recommend_resilient(
    const model::ResilienceSpec& spec) {
  const auto points = explore_resilient(spec);
  HEPEX_REQUIRE(!points.empty(),
                "no configuration makes progress at this failure rate");
  return *pareto::min_energy(points);
}

std::vector<pareto::ConfigPoint> Advisor::split_alternatives(int total_cores,
                                                             q::Hertz f_hz) {
  HEPEX_REQUIRE(total_cores >= 1, "need at least one core");
  std::vector<hw::ClusterConfig> cfgs;
  for (int tau = 1; tau <= machine_.node.cores; ++tau) {
    if (total_cores % tau != 0) continue;
    const int l = total_cores / tau;
    cfgs.push_back(hw::ClusterConfig{l, tau, f_hz});
  }
  HEPEX_REQUIRE(!cfgs.empty(),
                "no l x tau split fits this machine's nodes");
  return pareto::sweep_model(characterization(), model::target_of(program_),
                             cfgs);
}

Advisor Advisor::with_memory_bandwidth(double factor) {
  model::Characterization scaled =
      model::with_memory_bandwidth_scaled(characterization(), factor);
  return Advisor(scaled.machine, program_, options_, std::move(scaled));
}

Advisor Advisor::with_network_bandwidth(double factor) {
  model::Characterization scaled =
      model::with_network_bandwidth_scaled(characterization(), factor);
  return Advisor(scaled.machine, program_, options_, std::move(scaled));
}

}  // namespace hepex::core
