#pragma once
/// \file scenario.hpp
/// \brief The scenario-to-engine adapter: a scenario's simulator knobs
///        (`cfg::SimSettings`, the fault plan) as `SimOptions`. Sinks and
///        DVFS policies are live objects; `core::run` attaches the sinks
///        a scenario asks for.

#include "cfg/scenario.hpp"
#include "trace/execution_engine.hpp"

namespace hepex::trace {

/// SimOptions for a scenario: chunk count, jitter, seed and — when the
/// scenario carries a fault plan — a non-owning pointer to it. The
/// returned options therefore must not outlive `s`.
inline SimOptions sim_options_from_scenario(const cfg::Scenario& s) {
  SimOptions options;
  options.chunks_per_iteration = s.sim.chunks_per_iteration;
  options.jitter_cv = s.sim.jitter_cv;
  options.seed = s.sim.seed;
  options.faults = s.faults ? &*s.faults : nullptr;
  return options;
}

}  // namespace hepex::trace
