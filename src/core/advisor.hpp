#pragma once
/// \file advisor.hpp
/// \brief One-stop public API: from a program and a machine to
///        energy-efficient execution configurations.
///
/// `Advisor` packages the paper's whole workflow (Fig. 2):
///
/// ```
///   hepex::core::Advisor advisor(hw::xeon_cluster(),
///                                workload::make_sp());
///   auto rec = advisor.for_deadline(q::Seconds{60.0});
///   // rec->config is the (n, c, f) that meets the deadline with
///   // minimum energy; rec->ucr says how balanced the execution is.
/// ```
///
/// The first query triggers the measurement-driven characterization
/// (baseline runs, communication probe, NetPIPE, power micro-benchmarks)
/// and caches it; every later query is a cheap model evaluation.

#include <optional>
#include <vector>

#include "hw/machine.hpp"
#include "model/characterization.hpp"
#include "model/predictor.hpp"
#include "model/resilience.hpp"
#include "model/whatif.hpp"
#include "pareto/frontier.hpp"
#include "util/quantity.hpp"
#include "workload/program.hpp"

namespace hepex::cfg {
struct Scenario;
}  // namespace hepex::cfg

namespace hepex::core {

/// A recommended execution configuration with its predicted cost.
struct Recommendation {
  pareto::ConfigPoint point;   ///< configuration + predicted time/energy/UCR
  // `constraint`/`slack` hold either seconds (deadline query) or joules
  // (budget query); the unit depends on which query produced them, so they
  // stay raw doubles rather than pretending to one static dimension.
  double constraint = 0.0;     ///< the deadline [s] or budget [J] asked for
  double slack = 0.0;          ///< distance to the constraint (>= 0)
};

/// Facade over characterization, prediction and Pareto analysis for one
/// (machine, program) pair.
///
/// Not thread-safe: an Advisor memoizes lazily (characterization, space,
/// frontier, prediction cache), so share one instance only from a single
/// thread. Parallelism lives *inside* the sweeps (see src/par), which
/// keep results bit-identical to serial evaluation.
class Advisor {
 public:
  /// \param machine  target homogeneous cluster
  /// \param program  hybrid program (its input class and iteration count
  ///                 define the prediction target)
  /// \param options  characterization controls (baseline class, seeds)
  Advisor(hw::MachineSpec machine, workload::ProgramSpec program,
          model::CharacterizationOptions options = {});

  /// An advisor for a scenario's resolved machine and program, with
  /// `characterization_options(scenario, options)`: two scenarios that
  /// differ only in presentation (flags vs file) produce bit-identical
  /// advice. Throws std::invalid_argument for a class-S program.
  static Advisor from_scenario(const cfg::Scenario& scenario,
                               model::CharacterizationOptions options = {});

  /// The characterized model inputs (runs the measurement pass once).
  const model::Characterization& characterization();

  /// Model prediction at one configuration. Memoized on (n, c, f): the
  /// advisor's characterization is fixed, so repeated queries at the same
  /// grid point skip the model's fixed-point solve.
  model::Prediction predict(const hw::ClusterConfig& config);

  /// Evaluate the machine's full model configuration space (cached).
  /// The sweep runs on the configured `par` job count; results are
  /// bit-identical to a serial sweep.
  const std::vector<pareto::ConfigPoint>& explore();

  /// Time-energy Pareto frontier over the full space, ascending time.
  /// Cached alongside `explore()`'s space — both are derived from the
  /// same characterization and are only ever filled (and would only ever
  /// be invalidated) together. The reference stays valid for the
  /// advisor's lifetime.
  const std::vector<pareto::ConfigPoint>& frontier();

  /// Minimum-energy configuration meeting an execution-time deadline.
  std::optional<Recommendation> for_deadline(q::Seconds deadline_s);

  /// Minimum-time configuration within an energy budget.
  std::optional<Recommendation> for_budget(q::Joules budget_j);

  /// The configuration space with the expected fault overhead of `spec`
  /// folded in (Young/Daly closed form, see model/resilience.hpp).
  /// Configurations that cannot make forward progress at the failure
  /// rate are dropped. Each call re-ranks the cached fault-free
  /// predictions — the model is not re-evaluated.
  std::vector<pareto::ConfigPoint> explore_resilient(
      const model::ResilienceSpec& spec);

  /// Time-energy Pareto frontier under a failure rate. Comparing it to
  /// `frontier()` shows how resilience re-ranks configurations: wide,
  /// slow, low-frequency runs fall off the frontier first.
  std::vector<pareto::ConfigPoint> resilient_frontier(
      const model::ResilienceSpec& spec);

  /// Minimum-expected-energy configuration under a failure rate. Throws
  /// std::invalid_argument when no configuration makes progress.
  pareto::ConfigPoint recommend_resilient(const model::ResilienceSpec& spec);

  /// Application-developer view (§V-B): all ways to split a fixed total
  /// core count into l processes x tau threads at frequency `f_hz`,
  /// evaluated by the model. Splits use n = l nodes, c = tau cores.
  std::vector<pareto::ConfigPoint> split_alternatives(int total_cores,
                                                      q::Hertz f_hz);

  /// System-designer what-ifs: a new Advisor whose characterization
  /// reflects the scaled component (the original is unchanged).
  Advisor with_memory_bandwidth(double factor);
  Advisor with_network_bandwidth(double factor);

  /// The machine and program this advisor serves.
  const hw::MachineSpec& machine() const { return machine_; }
  const workload::ProgramSpec& program() const { return program_; }

  /// The ad-hoc `predict()` memo — read-only, for cache-effectiveness
  /// stats (hepexd reports aggregate hit/miss/eviction counts).
  const model::PredictionCache& prediction_cache() const { return cache_; }

  /// Bound the `predict()` memo (0 = unbounded; LRU eviction past the
  /// bound). A long-lived service sets this so per-advisor memory stays
  /// flat under adversarial query patterns.
  void set_prediction_cache_capacity(std::size_t capacity) {
    cache_.set_capacity(capacity);
  }

 private:
  Advisor(hw::MachineSpec machine, workload::ProgramSpec program,
          model::CharacterizationOptions options,
          model::Characterization prebuilt);

  hw::MachineSpec machine_;
  workload::ProgramSpec program_;
  model::CharacterizationOptions options_;
  std::optional<model::Characterization> ch_;
  // space_, predictions_ (full Prediction per space_ point, same order)
  // and frontier_ are derived from ch_ in explore()/frontier(); they are
  // filled together and must only ever be invalidated together.
  std::optional<std::vector<pareto::ConfigPoint>> space_;
  std::optional<std::vector<model::Prediction>> predictions_;
  std::optional<std::vector<pareto::ConfigPoint>> frontier_;
  model::PredictionCache cache_;  ///< memo for ad-hoc predict() queries
};

/// Characterization options for a scenario: its sim settings seed the
/// baseline runs, and the baseline input class is W for a program above
/// class W and S for a class-W program. Class S has no smaller class to
/// characterize on, so it throws std::invalid_argument naming
/// `workload.class`.
model::CharacterizationOptions characterization_options(
    const cfg::Scenario& scenario, model::CharacterizationOptions options = {});

}  // namespace hepex::core
