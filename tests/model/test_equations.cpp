// Per-equation unit tests for the paper's closed forms (§III-C/D).

#include "model/equations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "sim/queueing.hpp"
#include "util/rng.hpp"

namespace hepex::model::equations {
namespace {

TEST(Eq2TCpu, HandComputedValue) {
  // 1.2e12 total cycles on 4 nodes x 2 cores at 1.5 GHz: 100 s.
  EXPECT_NEAR(t_cpu_s(1.0e12, 0.2e12, 4, 2, q::Hertz{1.5e9}).value(), 100.0,
              1e-9);
}

TEST(Eq2TCpu, PerfectScalingInEachVariable) {
  const q::Seconds base = t_cpu_s(1e12, 0.0, 1, 1, q::Hertz{1e9});
  EXPECT_NEAR(t_cpu_s(1e12, 0.0, 2, 1, q::Hertz{1e9}).value(),
              base.value() / 2.0, 1e-12);
  EXPECT_NEAR(t_cpu_s(1e12, 0.0, 1, 4, q::Hertz{1e9}).value(),
              base.value() / 4.0, 1e-12);
  EXPECT_NEAR(t_cpu_s(1e12, 0.0, 1, 1, q::Hertz{2e9}).value(),
              base.value() / 2.0, 1e-12);
}

TEST(Eq2TCpu, RejectsBadInputs) {
  EXPECT_THROW(t_cpu_s(-1.0, 0.0, 1, 1, q::Hertz{1e9}), std::invalid_argument);
  EXPECT_THROW(t_cpu_s(1.0, 0.0, 0, 1, q::Hertz{1e9}), std::invalid_argument);
  EXPECT_THROW(t_cpu_s(1.0, 0.0, 1, 1, q::Hertz{}), std::invalid_argument);
}

TEST(Eq4Sigma, IterationAndCellRatios) {
  // Pure iteration scaling (the paper's S/S_s):
  EXPECT_DOUBLE_EQ(scaling_sigma(1000.0, 60, 1000.0, 40), 1.5);
  // Grid growth folds in multiplicatively:
  EXPECT_DOUBLE_EQ(scaling_sigma(8000.0, 40, 1000.0, 40), 8.0);
  EXPECT_THROW(scaling_sigma(0.0, 1, 1.0, 1), std::invalid_argument);
}

TEST(Eq7TMem, MatchesDivision) {
  EXPECT_NEAR(t_mem_s(3.6e11, 2, 3, q::Hertz{2e9}).value(), 30.0, 1e-9);
  EXPECT_THROW(t_mem_s(-1.0, 1, 1, q::Hertz{1e9}), std::invalid_argument);
}

TEST(Eq6Serve, TakesTheMaxOfCpuAndWireSides) {
  // CPU side dominates: (1 - 0.5) * 10 = 5 > 1 * 1e6/1e9 ~ 0.001.
  EXPECT_NEAR(t_serve_net_it_s(0.5, q::Seconds{10.0}, 1.0, q::Bytes{1e6},
                               q::BytesPerSec{1e9}, q::Seconds{})
                  .value(),
              5.0, 1e-9);
  // Wire side dominates: eta*nu/B = 10 * 1e7 / 1e8 = 1 > 0.01.
  EXPECT_NEAR(t_serve_net_it_s(0.999, q::Seconds{10.0}, 10.0, q::Bytes{1e7},
                               q::BytesPerSec{1e8}, q::Seconds{})
                  .value(),
              1.0, 1e-9);
}

TEST(Eq6Serve, AddsPerMessageSoftware) {
  const q::Seconds base = t_serve_net_it_s(
      1.0, q::Seconds{}, 4.0, q::Bytes{}, q::BytesPerSec{1e9}, q::Seconds{});
  const q::Seconds with_sw =
      t_serve_net_it_s(1.0, q::Seconds{}, 4.0, q::Bytes{},
                       q::BytesPerSec{1e9}, q::Seconds{1e-3});
  EXPECT_NEAR((with_sw - base).value(), 5.0e-3, 1e-12);  // (eta + 1) * sw
}

TEST(Eq5Wait, SingleNodeOrNoMessagesIsZero) {
  EXPECT_DOUBLE_EQ(t_wait_net_it_s(1, 5.0, q::Seconds{1.0}, q::Seconds{1e-3},
                                   q::SecondsSq{1e-6})
                       .value(),
                   0.0);
  EXPECT_DOUBLE_EQ(t_wait_net_it_s(8, 0.0, q::Seconds{1.0}, q::Seconds{1e-3},
                                   q::SecondsSq{1e-6})
                       .value(),
                   0.0);
}

TEST(Eq5Wait, SolvesTheClosedSystemFixedPoint) {
  // At the returned window, lambda = n*eta/(serve + wait) must give an
  // M/G/1 wait consistent with the solution.
  const int n = 8;
  const double eta = 12.0;
  const q::Seconds y{0.91e-3};
  const q::SecondsSq y2 = y * y * 1.04;
  const q::Seconds serve{11.3e-3};
  const q::Seconds wait = t_wait_net_it_s(n, eta, serve, y, y2);
  EXPECT_GT(wait.value(), 0.0);
  const q::Seconds t_comm = serve + wait;
  const q::Hertz lambda = n * eta / t_comm;
  const q::Seconds w_msg = sim::queueing::mg1_mean_wait(lambda, y, y2);
  EXPECT_NEAR((eta * w_msg).value(), wait.value(),
              1e-6 * wait.value() + 1e-12);
  // Stability: the window exceeds the full-serialization floor.
  EXPECT_GT(t_comm, n * eta * y);
}

TEST(Eq5Wait, GrowsWithNodeCount) {
  const q::Seconds y{1e-3};
  const q::SecondsSq y2 = y * y;
  const q::Seconds serve{5e-3};
  q::Seconds prev{};
  for (int n = 2; n <= 64; n *= 2) {
    const q::Seconds w = t_wait_net_it_s(n, 6.0, serve, y, y2);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

/// Reference for `t_wait_net_it_s`: the same bracket and bisection with
/// no early exit, so all 100 halvings always run. The solver must return
/// the same bits for every input.
q::Seconds t_wait_net_it_s_100_steps(int nodes, double eta_it,
                                     q::Seconds serve_it, q::Seconds y,
                                     q::SecondsSq y2) {
  if (nodes < 2 || eta_it <= 0.0 || y <= q::Seconds{}) return q::Seconds{};
  const double n = nodes;
  const q::Seconds t_min = n * eta_it * y;
  auto g = [&](q::Seconds t) {
    const q::Hertz lambda = n * eta_it / t;
    const q::Seconds wait = sim::queueing::mg1_mean_wait(lambda, y, y2);
    return serve_it + eta_it * wait - t;
  };
  q::Seconds lo = t_min * (1.0 + 1e-6);
  q::Seconds hi = std::max(serve_it, t_min) * 4.0 + t_min;
  while (g(hi) > q::Seconds{}) hi *= 2.0;
  for (int k = 0; k < 100; ++k) {
    const q::Seconds mid = 0.5 * (lo + hi);
    if (g(mid) > q::Seconds{}) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::max(q::Seconds{}, 0.5 * (lo + hi) - serve_it);
}

std::uint64_t bits(q::Seconds s) {
  return std::bit_cast<std::uint64_t>(s.value());
}

void expect_same_bits(int n, double eta, q::Seconds serve, q::Seconds y,
                      q::SecondsSq y2) {
  EXPECT_EQ(bits(t_wait_net_it_s(n, eta, serve, y, y2)),
            bits(t_wait_net_it_s_100_steps(n, eta, serve, y, y2)))
      << "n=" << n << " eta=" << eta << " serve=" << serve.value()
      << " y=" << y.value() << " y2=" << y2.value();
}

TEST(Eq5Wait, StoppingAtTheFixedPointKeepsEveryBit) {
  util::Rng rng(0x5eed'0005);
  const auto log_uniform = [&rng](double lo_exp, double hi_exp) {
    return std::pow(10.0, rng.uniform(lo_exp, hi_exp));
  };
  int mismatches = 0;
  for (int i = 0; i < 120'000; ++i) {
    const int n = 1 + static_cast<int>(rng() % 1024);
    const double eta = i % 20 == 0 ? 0.0 : log_uniform(-3.0, 4.0);
    const q::Seconds serve{log_uniform(-9.0, 3.0)};
    const q::Seconds y{log_uniform(-9.0, -1.0)};
    const q::SecondsSq y2 = y * y * log_uniform(-3.0, 3.0);
    const q::Seconds got = t_wait_net_it_s(n, eta, serve, y, y2);
    const q::Seconds want = t_wait_net_it_s_100_steps(n, eta, serve, y, y2);
    if (bits(got) != bits(want)) {
      if (++mismatches <= 5) expect_same_bits(n, eta, serve, y, y2);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Eq5Wait, StoppingAtTheFixedPointKeepsEveryBitAtTheEdges) {
  const q::Seconds y{1e-3};
  const q::SecondsSq y2 = y * y * 1.5;
  // The early zero return: one node, no messages, no service time.
  expect_same_bits(1, 5.0, q::Seconds{1.0}, y, y2);
  expect_same_bits(8, 0.0, q::Seconds{1.0}, y, y2);
  expect_same_bits(8, -2.0, q::Seconds{1.0}, y, y2);
  expect_same_bits(8, 5.0, q::Seconds{1.0}, q::Seconds{}, y2);
  expect_same_bits(8, 5.0, q::Seconds{1.0}, q::Seconds{-1e-3}, y2);
  // rho just under 1 at the bracket's low end: with no service-time
  // variance (or nearly none) and serve below t_min, the root sits at
  // t_min * (1 + 1e-6), where rho = 1 / (1 + 1e-6).
  const int n = 16;
  const double eta = 40.0;
  const q::Seconds t_min = n * eta * y;
  for (const double spread : {0.0, 1e-12, 1e-6, 1.0}) {
    expect_same_bits(n, eta, t_min * 0.5, y, y * y * spread);
    expect_same_bits(n, eta, t_min * (1.0 - 1e-9), y, y * y * spread);
    expect_same_bits(n, eta, t_min, y, y * y * spread);
  }
  // serve far above and far below t_min.
  for (const double ratio : {1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e12}) {
    expect_same_bits(n, eta, t_min * ratio, y, y2);
  }
  // A bracket 2^57 t_min wide (serve / t_min = 2^55), the widest the
  // initial bracket gets relative to t_min in these tests ...
  expect_same_bits(n, eta, t_min * std::ldexp(1.0, 55), y, y2);
  expect_same_bits(2, 1e-3, q::Seconds{std::ldexp(2e-3 * 1e-9, 55)},
                   q::Seconds{1e-9}, q::SecondsSq{1e-18});
  // ... and one that overflows to infinity at once.
  expect_same_bits(n, eta, q::Seconds{std::numeric_limits<double>::infinity()},
                   y, y2);
}

TEST(Eq9To12Energy, HandComputedValues) {
  // Eq. 9: (5 W * 10 s + 2 W * 4 s) * 3 cores * 2 nodes = 348 J.
  EXPECT_NEAR(e_cpu_j(q::Watts{5.0}, q::Watts{2.0}, q::Seconds{10.0},
                      q::Seconds{4.0}, 2, 3)
                  .value(),
              348.0, 1e-9);
  EXPECT_NEAR(e_mem_j(q::Watts{8.0}, q::Seconds{4.0}, 2).value(), 64.0, 1e-12);
  EXPECT_NEAR(e_net_j(q::Watts{3.0}, q::Seconds{2.0}, 4).value(), 24.0, 1e-12);
  EXPECT_NEAR(e_idle_j(q::Watts{55.0}, q::Seconds{100.0}, 8).value(), 44000.0,
              1e-9);
  EXPECT_THROW(e_cpu_j(q::Watts{-1.0}, q::Watts{}, q::Seconds{1.0},
                       q::Seconds{1.0}, 1, 1),
               std::invalid_argument);
}

TEST(Eq13Ucr, RatioAndGuards) {
  EXPECT_DOUBLE_EQ(ucr(q::Seconds{2.0}, q::Seconds{8.0}), 0.25);
  EXPECT_DOUBLE_EQ(ucr(q::Seconds{8.0}, q::Seconds{8.0}), 1.0);
  EXPECT_THROW(ucr(q::Seconds{1.0}, q::Seconds{}), std::invalid_argument);
}

}  // namespace
}  // namespace hepex::model::equations
