#pragma once
/// \file power_meter.hpp
/// \brief WattsUp-style external energy meter.
///
/// The paper measures energy at the wall with a WattsUp meter (Fig. 4).
/// Such meters sample at 1 Hz and carry a per-node calibration offset —
/// the paper quantifies the offset at up to ~2 W per Xeon node and ~0.4 W
/// per ARM node (§IV-C, error source 3). `PowerMeter` converts a
/// simulation's exact integrated energy into the *observed* reading a
/// real meter would report, so both the "measured" side of validation and
/// the model's power characterization inherit realistic measurement error.

#include <cstdint>

#include "hw/machine.hpp"
#include "trace/measurement.hpp"
#include "util/quantity.hpp"
#include "util/rng.hpp"

namespace hepex::trace {

/// One meter observation of a full run.
struct MeterReading {
  q::Seconds time_s{};    ///< from the `time` command (accurate)
  q::Joules energy_j{};   ///< wall energy with sampling + calibration error
};

/// Simulated WattsUp meter attached to every node of a cluster.
class PowerMeter {
 public:
  /// \param machine  the metered cluster (supplies the calibration sigma);
  ///                 copied, so temporaries like `hw::xeon_cluster()` are safe
  /// \param seed     meter noise stream; a given meter instance drifts
  ///                 deterministically for reproducible experiments
  explicit PowerMeter(hw::MachineSpec machine, std::uint64_t seed = 7);

  /// Observe a run: exact energy plus a per-reading calibration offset of
  /// sigma `meter_offset_sigma_w` per node, and 1 Hz sampling quantisation.
  MeterReading read(const Measurement& m);

 private:
  hw::MachineSpec machine_;
  util::Rng rng_;
};

}  // namespace hepex::trace
