// Tests for the WattsUp-style power meter.

#include "trace/power_meter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hw/presets.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

namespace hepex::trace {
namespace {

Measurement sample_run() {
  // Class W keeps the run well above the meter's 1 Hz sampling period so
  // the quantization error stays small.
  return simulate(hw::xeon_cluster(),
                  workload::program_by_name("BT", workload::InputClass::kW),
                  {2, 2, q::Hertz{1.5e9}});
}

TEST(PowerMeter, NoisyReadingIsCloseToExact) {
  const Measurement m = sample_run();
  PowerMeter meter(hw::xeon_cluster());
  const MeterReading r = meter.read(m);
  EXPECT_DOUBLE_EQ(r.time_s.value(), m.time_s.value());
  // Calibration offset (2 W/node, 2 nodes) + 1 Hz quantization stay small
  // relative to a >100 W cluster.
  EXPECT_NEAR(r.energy_j / m.energy.total(), 1.0, 0.15);
}

TEST(PowerMeter, SameSeedSameReadings) {
  const Measurement m = sample_run();
  PowerMeter a(hw::xeon_cluster(), 99);
  PowerMeter b(hw::xeon_cluster(), 99);
  EXPECT_DOUBLE_EQ(a.read(m).energy_j.value(), b.read(m).energy_j.value());
}

TEST(PowerMeter, ConsecutiveReadingsDrift) {
  const Measurement m = sample_run();
  PowerMeter meter(hw::xeon_cluster());
  const q::Joules first = meter.read(m).energy_j;
  const q::Joules second = meter.read(m).energy_j;
  EXPECT_NE(first, second);  // independent calibration draws per reading
}

TEST(PowerMeter, ZeroLengthRunThrows) {
  Measurement m;
  m.time_s = q::Seconds{};
  PowerMeter meter(hw::xeon_cluster());
  EXPECT_THROW(meter.read(m), std::invalid_argument);
}

TEST(PowerMeter, ArmMeterIsMorePrecise) {
  // Paper: ~0.4 W sigma on ARM vs ~2 W on Xeon.
  EXPECT_LT(hw::arm_cluster().node.power.meter_offset_sigma_w,
            hw::xeon_cluster().node.power.meter_offset_sigma_w);
}

}  // namespace
}  // namespace hepex::trace
