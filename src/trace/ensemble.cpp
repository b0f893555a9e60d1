#include "trace/ensemble.hpp"

#include "fault/plan.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hepex::trace {

std::uint64_t replica_seed(std::uint64_t base, std::size_t replica) {
  util::SplitMix64 sm(base ^ (static_cast<std::uint64_t>(replica) + 1));
  return sm.next();
}

std::vector<Measurement> simulate_ensemble(const hw::MachineSpec& machine,
                                           const workload::ProgramSpec& program,
                                           const hw::ClusterConfig& config,
                                           const SimOptions& base,
                                           std::size_t replicas, int jobs) {
  HEPEX_REQUIRE(!base.has_sinks(),
                "shared observability sinks cannot be attached to an "
                "ensemble; use the per-replica setup overload");
  return simulate_ensemble(machine, program, config, base, replicas,
                           ReplicaSetup{}, jobs);
}

std::vector<Measurement> simulate_ensemble(const hw::MachineSpec& machine,
                                           const workload::ProgramSpec& program,
                                           const hw::ClusterConfig& config,
                                           const SimOptions& base,
                                           std::size_t replicas,
                                           const ReplicaSetup& setup,
                                           int jobs) {
  HEPEX_REQUIRE(replicas >= 1, "an ensemble needs at least one replica");
  std::vector<Measurement> out(replicas);
  par::parallel_for(
      replicas,
      [&](std::size_t i) {
        // Everything mutable is replica-private: the options copy, the
        // plan clone it may point at, and the simulator inside
        // simulate(). Writing out[i] is the only shared touch, and each
        // index is written exactly once.
        SimOptions opt = base;
        opt.seed = replica_seed(base.seed, i);
        fault::Plan plan;
        if (base.faults != nullptr) {
          plan = *base.faults;
          plan.seed = replica_seed(base.faults->seed, i);
          opt.faults = &plan;
        }
        if (setup) setup(i, opt);
        out[i] = simulate(machine, program, config, opt);
      },
      jobs);
  return out;
}

EnsembleSummary summarize_ensemble(const std::vector<Measurement>& runs) {
  EnsembleSummary s;
  for (const Measurement& m : runs) {
    s.time_s.add(m.time_s.value());
    s.energy_j.add(m.energy.total().value());
    s.fault_time_s.add(m.t_fault_s.value());
    if (m.completed()) {
      ++s.completed;
    } else {
      ++s.aborted;
    }
    s.crashes += m.faults.crashes;
    s.recoveries += m.faults.recoveries;
  }
  return s;
}

}  // namespace hepex::trace
