// Extension experiment — resilience-aware energy advice (docs/faults.md).
//
// Two claims are demonstrated on SP/Xeon:
//
//  1. Failure rates RE-RANK the time-energy plane. The Young/Daly expected
//     overhead grows with the node count (cluster MTBF = theta / n), so
//     wide configurations pay more expected rework and the energy-optimal
//     configuration under failures drifts toward fewer nodes. Shown as
//     fault-free vs resilient Pareto frontiers at increasing rates.
//
//  2. The closed-form advice agrees with the simulator's ground truth.
//     Every resilient-frontier configuration the machine can physically
//     run is simulated under a matching random-failure fault::Plan
//     (several plan seeds, mean energy); the advisor's recommended
//     expected energy must land within 10% of the simulated optimum.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"
#include "fault/plan.hpp"

using namespace hepex;

namespace {

/// Simulate `cfg` under a Poisson failure plan matching `spec`, averaged
/// over `seeds` plan seeds. Returns mean total energy [J].
double simulated_mean_energy_j(const hw::MachineSpec& machine,
                               const workload::ProgramSpec& program,
                               const hw::ClusterConfig& cfg,
                               const model::ResilienceSpec& spec,
                               double interval_s, int seeds) {
  double sum = 0.0;
  int completed = 0;
  for (int s = 1; s <= seeds; ++s) {
    fault::Plan plan;
    plan.seed = static_cast<std::uint64_t>(s) * 1000003ull;
    plan.random_failures.node_mtbf_s = spec.node_mtbf_s;
    plan.recovery.mode = fault::RecoveryMode::kCheckpointRestart;
    plan.recovery.checkpoint_interval_s = interval_s;
    plan.recovery.checkpoint_write_s = spec.checkpoint_write_s;
    plan.recovery.restart_s = spec.restart_s;
    // Detection latency the closed form does not model; keep it small
    // relative to the checkpoint interval.
    plan.recovery.barrier_timeout_s = spec.checkpoint_write_s;

    trace::SimOptions opt;
    opt.faults = &plan;
    const auto m = trace::simulate(machine, program, cfg, opt);
    if (m.completed()) {
      sum += m.energy.total().value();
      ++completed;
    }
  }
  return completed > 0 ? sum / completed : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  hepex::bench::ProfileSession profile(argc, argv);
  bench::banner(
      "Extension — resilience-aware advice: Young/Daly re-ranks the frontier",
      "the energy-optimal configuration under failures uses no more nodes "
      "than the fault-free optimum; closed-form expected energy matches "
      "simulated checkpoint/restart runs within 10%");

  const auto machine = bench::machine("xeon");
  const auto program = workload::make_sp(workload::InputClass::kA);
  core::Advisor advisor(machine, program, bench::standard_options());

  const auto& space = advisor.explore();
  const auto& best_ff = *pareto::min_energy(space);
  std::printf("Fault-free optimum: %s  T=%s s  E=%s kJ\n\n",
              bench::cell_config(best_ff.config).c_str(),
              bench::cell_time(best_ff.time_s).c_str(),
              bench::cell_energy_kj(best_ff.energy_j).c_str());

  // Cost model scaled to the workload: a checkpoint costs ~2% of the
  // fault-free optimum's runtime, a restart ~5%.
  const double delta = best_ff.time_s.value() * 0.02;
  const double restart = best_ff.time_s.value() * 0.05;

  // ---- 1. Frontier shift with the failure rate --------------------------
  std::printf("Frontier re-ranking (E_exp = expected energy under the "
              "failure rate):\n");
  util::Table shift({"node MTBF [s]", "feasible", "frontier", "best (n,c,f)",
                     "T_exp [s]", "E_exp [kJ]", "vs fault-free E [%]"});
  const auto frontier_ff = advisor.frontier();
  shift.add_row({"inf (fault-free)", std::to_string(space.size()),
                 std::to_string(frontier_ff.size()),
                 bench::cell_config(best_ff.config),
                 bench::cell_time(best_ff.time_s),
                 bench::cell_energy_kj(best_ff.energy_j), "0.0"});
  for (const double mtbf_factor : {400.0, 60.0, 8.0}) {
    model::ResilienceSpec spec;
    spec.node_mtbf_s = best_ff.time_s.value() * mtbf_factor;
    spec.checkpoint_write_s = delta;
    spec.restart_s = restart;
    const auto feasible = advisor.explore_resilient(spec);
    const auto frontier = advisor.resilient_frontier(spec);
    const auto rec = advisor.recommend_resilient(spec);
    shift.add_row(
        {util::fmt(spec.node_mtbf_s, 0), std::to_string(feasible.size()),
         std::to_string(frontier.size()),
         bench::cell_config(rec.config),
         bench::cell_time(rec.time_s), bench::cell_energy_kj(rec.energy_j),
         util::fmt((rec.energy_j / best_ff.energy_j - 1.0) * 100.0, 1)});
  }
  std::printf("%s\n", shift.to_text().c_str());

  // ---- 2. Closed form vs simulated ground truth -------------------------
  model::ResilienceSpec spec;
  spec.node_mtbf_s = best_ff.time_s.value() * 8.0;
  spec.checkpoint_write_s = delta;
  spec.restart_s = restart;
  const auto rec = advisor.recommend_resilient(spec);

  std::printf("Validation at node MTBF = %.0f s (~%.2f expected failures "
              "on the recommended run):\n",
              spec.node_mtbf_s,
              rec.time_s.value() * rec.config.nodes / spec.node_mtbf_s);

  // Simulate every physically runnable resilient-frontier configuration
  // (plus the fault-free optimum) under a matching random-failure plan.
  std::vector<pareto::ConfigPoint> candidates =
      advisor.resilient_frontier(spec);
  const auto resilient_space = advisor.explore_resilient(spec);
  for (const auto& p : resilient_space) {
    if (p.config == best_ff.config || p.config == rec.config) {
      candidates.push_back(p);
    }
  }

  constexpr int kSeeds = 5;
  util::Table val({"(n,c,f)", "E_exp [kJ]", "E_sim mean [kJ]", "err [%]"});
  double sim_opt_energy = 0.0;
  hw::ClusterConfig sim_opt_cfg{};
  std::vector<hw::ClusterConfig> seen;
  for (const auto& p : candidates) {
    if (p.config.nodes > machine.nodes_available) continue;
    if (std::find(seen.begin(), seen.end(), p.config) != seen.end()) continue;
    seen.push_back(p.config);
    const auto oh = model::expected_fault_overhead(
        advisor.predict(p.config).time_s, p.config.nodes,
        advisor.predict(p.config).energy_parts, machine.node.power, spec);
    const double interval = oh ? oh->interval_s.value() : 0.0;
    const double e_sim = simulated_mean_energy_j(machine, program, p.config,
                                                 spec, interval, kSeeds);
    if (e_sim <= 0.0) continue;
    val.add_row({bench::cell_config(p.config),
                 bench::cell_energy_kj(p.energy_j),
                 bench::cell_energy_kj(e_sim),
                 util::fmt((p.energy_j.value() / e_sim - 1.0) * 100.0, 1)});
    if (sim_opt_energy == 0.0 || e_sim < sim_opt_energy) {
      sim_opt_energy = e_sim;
      sim_opt_cfg = p.config;
    }
  }
  std::printf("%s\n", val.to_text().c_str());
  bench::maybe_write_artifact("ext_fault_overhead.csv", val.to_csv());

  const double gap = (rec.energy_j.value() / sim_opt_energy - 1.0) * 100.0;
  std::printf("Advisor recommends %s at %.3f kJ expected; simulated optimum "
              "is %s at %.3f kJ (gap %+.1f%%).\n",
              bench::cell_config(rec.config).c_str(),
              rec.energy_j.value() / 1e3,
              bench::cell_config(sim_opt_cfg).c_str(),
              sim_opt_energy / 1e3, gap);
  if (std::abs(gap) > 10.0) {
    std::printf("=> FAIL: recommendation is more than 10%% from the "
                "simulated optimum.\n");
    return 1;
  }
  std::printf("=> the closed-form recommendation lands within 10%% of the "
              "simulated optimum energy; failure rates push the optimum "
              "toward fewer nodes, never more.\n");
  return 0;
}
