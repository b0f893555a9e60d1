// Tests for UCR (Eq. 13) and the time-share breakdown (Eq. 14).

#include "pareto/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "model/equations.hpp"
#include "trace/measurement.hpp"

namespace hepex::pareto {
namespace {

model::Prediction make_pred(double cpu, double mem, double tw, double ts) {
  model::Prediction p;
  p.t_cpu_s = q::Seconds{cpu};
  p.t_mem_s = q::Seconds{mem};
  p.t_w_net_s = q::Seconds{tw};
  p.t_s_net_s = q::Seconds{ts};
  p.time_s = q::Seconds{cpu + mem + tw + ts};
  p.ucr = p.t_cpu_s / p.time_s;
  return p;
}

// The model's UCR (what the predictor stores in Prediction::ucr) and its
// share of the time breakdown agree.
TEST(Ucr, IsTcpuOverTotal) {
  const auto p = make_pred(6.0, 2.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(model::equations::ucr(p.t_cpu_s, p.time_s), 0.6);
  EXPECT_DOUBLE_EQ(time_shares(p).cpu, 0.6);
}

TEST(Ucr, PureComputeIsOne) {
  const auto p = make_pred(10.0, 0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(model::equations::ucr(p.t_cpu_s, p.time_s), 1.0);
}

TEST(Ucr, ZeroTimeThrows) {
  const model::Prediction p;
  EXPECT_THROW(model::equations::ucr(p.t_cpu_s, p.time_s),
               std::invalid_argument);
}

TEST(Ucr, OfMeasurement) {
  trace::Measurement m;
  m.time_s = q::Seconds{10.0};
  m.t_cpu_s = q::Seconds{4.0};
  EXPECT_DOUBLE_EQ(m.ucr(), 0.4);
}

TEST(TimeShares, SumToOne) {
  const auto p = make_pred(5.0, 3.0, 1.5, 0.5);
  const TimeShares s = time_shares(p);
  EXPECT_NEAR(s.cpu + s.memory + s.net_wait + s.net_serve, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.cpu, 0.5);
  EXPECT_DOUBLE_EQ(s.memory, 0.3);
  EXPECT_DOUBLE_EQ(s.net_wait, 0.15);
  EXPECT_DOUBLE_EQ(s.net_serve, 0.05);
}

TEST(TimeShares, ZeroTimeThrows) {
  model::Prediction p;
  EXPECT_THROW(time_shares(p), std::invalid_argument);
}

}  // namespace
}  // namespace hepex::pareto
