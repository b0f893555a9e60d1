#include "model/equations.hpp"

#include <algorithm>
#include <cmath>

#include "sim/queueing.hpp"
#include "util/error.hpp"

namespace hepex::model::equations {

q::Seconds t_cpu_s(double work_cycles, double nonmem_stall_cycles, int nodes,
                   int cores, q::Hertz f) {
  HEPEX_REQUIRE(work_cycles >= 0.0 && nonmem_stall_cycles >= 0.0,
                "cycle counts must be non-negative");
  HEPEX_REQUIRE(nodes >= 1 && cores >= 1, "need at least one core");
  HEPEX_REQUIRE(f.value() > 0.0, "frequency must be positive");
  return (work_cycles + nonmem_stall_cycles) /
         (static_cast<double>(nodes) * cores * f);
}

double scaling_sigma(double target_cells, int target_iterations,
                     double baseline_cells, int baseline_iterations) {
  HEPEX_REQUIRE(target_cells > 0.0 && baseline_cells > 0.0,
                "cell counts must be positive");
  HEPEX_REQUIRE(target_iterations >= 1 && baseline_iterations >= 1,
                "iteration counts must be positive");
  return (target_cells * target_iterations) /
         (baseline_cells * baseline_iterations);
}

q::Seconds t_mem_s(double mem_stall_cycles, int nodes, int cores, q::Hertz f) {
  HEPEX_REQUIRE(mem_stall_cycles >= 0.0, "stall cycles must be non-negative");
  HEPEX_REQUIRE(nodes >= 1 && cores >= 1, "need at least one core");
  HEPEX_REQUIRE(f.value() > 0.0, "frequency must be positive");
  return mem_stall_cycles / (static_cast<double>(nodes) * cores * f);
}

q::Seconds t_serve_net_it_s(double utilization, q::Seconds t_cpu_it,
                            double eta_it, q::Bytes nu,
                            q::BytesPerSec bandwidth, q::Seconds msg_software) {
  HEPEX_REQUIRE(bandwidth.value() > 0.0, "bandwidth must be positive");
  HEPEX_REQUIRE(eta_it >= 0.0 && nu.value() >= 0.0,
                "message characteristics must be non-negative");
  const q::Seconds cpu_side = (1.0 - utilization) * t_cpu_it;
  const q::Seconds wire_side = eta_it * nu / bandwidth;
  return std::max(cpu_side, wire_side) + (eta_it + 1.0) * msg_software;
}

q::Seconds t_wait_net_it_s(int nodes, double eta_it, q::Seconds serve_it,
                           q::Seconds y, q::SecondsSq y2) {
  HEPEX_REQUIRE(nodes >= 1, "need at least one node");
  if (nodes < 2 || eta_it <= 0.0 || y <= q::Seconds{}) return q::Seconds{};

  const double n = nodes;
  // g(t) = serve + eta * W(n*eta/t) - t: +inf just above the stability
  // threshold t_min = n*eta*y, negative for large t; bisect to the
  // largest (stable) root.
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
    q::Seconds& end = g(mid) > q::Seconds{} ? lo : hi;
    // A halving that moves neither end repeats itself on every later
    // step, so the remaining steps would change nothing.
    if (end == mid) break;
    end = mid;
  }
  return std::max(q::Seconds{}, 0.5 * (lo + hi) - serve_it);
}

q::Joules e_cpu_j(q::Watts p_active, q::Watts p_stall, q::Seconds t_cpu,
                  q::Seconds t_mem, int nodes, int cores) {
  HEPEX_REQUIRE(p_active.value() >= 0.0 && p_stall.value() >= 0.0,
                "power must be non-negative");
  return (p_active * t_cpu + p_stall * t_mem) * static_cast<double>(cores) *
         nodes;
}

q::Joules e_mem_j(q::Watts p_mem, q::Seconds t_mem, int nodes) {
  return p_mem * t_mem * nodes;
}

q::Joules e_net_j(q::Watts p_net, q::Seconds t_net, int nodes) {
  return p_net * t_net * nodes;
}

q::Joules e_idle_j(q::Watts p_idle, q::Seconds time, int nodes) {
  return p_idle * time * nodes;
}

double ucr(q::Seconds t_cpu, q::Seconds total) {
  HEPEX_REQUIRE(total > q::Seconds{}, "total time must be positive");
  return t_cpu / total;
}

}  // namespace hepex::model::equations
