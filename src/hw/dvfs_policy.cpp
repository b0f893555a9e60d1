#include "hw/dvfs_policy.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "util/error.hpp"

namespace hepex::hw {

SlackStepPolicy::SlackStepPolicy(double margin, double up_threshold)
    : margin_(margin), up_threshold_(up_threshold) {
  HEPEX_REQUIRE(margin > 0.0 && margin <= 1.0, "margin must be in (0, 1]");
  HEPEX_REQUIRE(up_threshold >= 0.0, "up threshold must be non-negative");
}

q::Hertz SlackStepPolicy::next_frequency(const SlackObservation& obs,
                                         const DvfsRange& range) {
  const auto& fs = range.frequencies_hz;
  HEPEX_ASSERT(!fs.empty(), "DVFS range has no operating points");
  // Locate the current operating point.
  std::size_t idx = 0;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    if (q::abs(fs[i] - obs.f_current_hz) < q::Hertz{1e3}) {
      idx = i;
      break;
    }
  }
  if (idx > 0) {
    // Worst-case cost of the slower point: all busy time scales with
    // 1/f (memory stalls actually do not, so this is conservative).
    const double cost =
        obs.busy_fraction * (fs[idx] / fs[idx - 1] - 1.0);
    if (cost <= margin_ * obs.slack_fraction) {
      HEPEX_LOG_DEBUG("dvfs", "step down",
                      {{"node", obs.node},
                       {"slack", obs.slack_fraction},
                       {"cost", cost},
                       {"to_ghz", fs[idx - 1].value() / 1e9}});
      return fs[idx - 1];
    }
  }
  if (obs.slack_fraction < up_threshold_ && idx + 1 < fs.size() &&
      fs[idx + 1] <= obs.f_configured_hz + q::Hertz{1e3}) {
    HEPEX_LOG_DEBUG("dvfs", "step up",
                    {{"node", obs.node},
                     {"slack", obs.slack_fraction},
                     {"to_ghz", fs[idx + 1].value() / 1e9}});
    return fs[idx + 1];
  }
  return fs[idx];
}

std::shared_ptr<DvfsPolicy> slack_step_policy(double margin,
                                              double up_threshold) {
  return std::make_shared<SlackStepPolicy>(margin, up_threshold);
}

}  // namespace hepex::hw
