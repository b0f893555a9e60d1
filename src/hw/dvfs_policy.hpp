#pragma once
/// \file dvfs_policy.hpp
/// \brief Per-node runtime DVFS policies.
///
/// The paper's related work (§II-A) surveys DVFS techniques that exploit
/// *inter-node slack* — nodes idling at synchronisation points can run
/// slower without moving the critical path — and notes that "as these
/// approaches are applicable at run-time in a dynamic manner, they can be
/// used in conjunction with our proposed approach". HEPEX implements that
/// combination: the execution engine consults a `DvfsPolicy` at every
/// iteration boundary, so static Pareto-optimal configurations can be
/// paired with dynamic slack reclamation (see `bench_ext_dvfs_slack`).

#include <memory>

#include "hw/power.hpp"

namespace hepex::hw {

/// Per-node observation handed to the policy at an iteration boundary.
struct SlackObservation {
  int node = 0;                 ///< node index
  int iteration = 0;            ///< iteration that just completed
  q::Hertz f_current_hz{};      ///< node frequency during that iteration
  q::Hertz f_configured_hz{};   ///< the statically chosen configuration f
  q::Seconds busy_until_s{};    ///< when this node finished its work
  q::Seconds barrier_at_s{};    ///< when the global barrier released
  /// Fraction of the iteration this node spent working.
  double busy_fraction = 0.0;
  /// Fraction of the iteration this node idled behind the laggard node
  /// (the reclaimable slack; the shared message-drain tail is excluded).
  double slack_fraction = 0.0;
};

/// Runtime frequency governor interface.
class DvfsPolicy {
 public:
  virtual ~DvfsPolicy() = default;

  /// Frequency this node should use for the *next* iteration. Must
  /// return one of `range`'s operating points.
  virtual q::Hertz next_frequency(const SlackObservation& obs,
                                  const DvfsRange& range) = 0;
};

/// Just-in-time slack reclamation (Kappiah et al., SC'05 style): a node
/// steps one operating point down only when the *predicted* extra compute
/// time of the slower point — busy_fraction * (f/f_down - 1) — fits
/// inside `margin` of the observed slack, so the critical path is never
/// knowingly extended. A node on the critical path (slack below
/// `up_threshold`) steps back up — but never above the statically chosen
/// configuration frequency, which acts as a ceiling: the policy reclaims
/// slack, it does not overclock.
class SlackStepPolicy final : public DvfsPolicy {
 public:
  /// \param margin       fraction of the slack the step-down may consume
  /// \param up_threshold slack fraction below which to speed up
  explicit SlackStepPolicy(double margin = 0.8, double up_threshold = 0.02);

  q::Hertz next_frequency(const SlackObservation& obs,
                          const DvfsRange& range) override;

 private:
  double margin_;
  double up_threshold_;
};

/// Convenience factory.
std::shared_ptr<DvfsPolicy> slack_step_policy(double margin = 0.8,
                                              double up_threshold = 0.02);

}  // namespace hepex::hw
