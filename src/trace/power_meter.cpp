#include "trace/power_meter.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace hepex::trace {

PowerMeter::PowerMeter(hw::MachineSpec machine, std::uint64_t seed)
    : machine_(std::move(machine)), rng_(seed) {}

MeterReading PowerMeter::read(const Measurement& m) {
  HEPEX_REQUIRE(m.time_s > q::Seconds{}, "cannot meter a zero-length run");
  MeterReading r;
  r.time_s = m.time_s;

  // Per-reading calibration offset, one draw per node.
  q::Watts offset_w{};
  for (int i = 0; i < m.config.nodes; ++i) {
    offset_w += q::Watts{
        rng_.normal(0.0, machine_.node.power.meter_offset_sigma_w.value())};
  }

  // 1 Hz sampling: the meter accumulates whole-second samples, so the
  // fractional tail of the run is truncated or rounded up.
  const q::Watts mean_power = m.energy.total() / m.time_s + offset_w;
  const q::Seconds sampled_s{std::max(1.0, std::round(m.time_s.value()))};
  r.energy_j = mean_power * sampled_s;
  return r;
}

}  // namespace hepex::trace
