#include "workload/program.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hepex::workload {

double ProgramSpec::working_set_per_process(int n) const {
  HEPEX_REQUIRE(n >= 1, "need at least one process");
  // Ghost/halo layers keep the split slightly super-linear; 5% per split
  // is a typical stencil overhead.
  const double ghost = 1.0 + 0.05 * (n > 1 ? 1.0 : 0.0);
  return compute.working_set_bytes / static_cast<double>(n) * ghost;
}

namespace {
bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }
}  // namespace

void ProgramSpec::validate() const {
  HEPEX_REQUIRE(iterations >= 1, "program needs >= 1 iteration");
  HEPEX_REQUIRE(std::isfinite(compute.instructions_per_iter) &&
                    compute.instructions_per_iter > 0.0,
                "instructions per iteration must be finite and positive");
  HEPEX_REQUIRE(std::isfinite(compute.cpi_factor) && compute.cpi_factor > 0.0,
                "CPI factor must be finite and positive");
  HEPEX_REQUIRE(finite_nonneg(compute.stall_factor),
                "stall factor must be finite and >= 0");
  HEPEX_REQUIRE(finite_nonneg(compute.bytes_per_instruction),
                "bytes per instruction must be finite and >= 0");
  HEPEX_REQUIRE(finite_nonneg(compute.reuse_bytes_per_instruction),
                "reuse bytes per instruction must be finite and >= 0");
  HEPEX_REQUIRE(finite_nonneg(compute.reuse_window_bytes),
                "reuse window must be finite and >= 0");
  HEPEX_REQUIRE(finite_nonneg(compute.working_set_bytes),
                "working set must be finite and >= 0");
  HEPEX_REQUIRE(std::isfinite(compute.serial_fraction) &&
                    compute.serial_fraction >= 0.0 &&
                    compute.serial_fraction <= 1.0,
                "serial fraction must be in [0, 1]");
  HEPEX_REQUIRE(std::isfinite(compute.imbalance) &&
                    compute.imbalance >= 0.0 && compute.imbalance < 1.0,
                "thread imbalance must be in [0, 1)");
  HEPEX_REQUIRE(std::isfinite(compute.node_imbalance) &&
                    compute.node_imbalance >= 0.0 &&
                    compute.node_imbalance < 1.0,
                "node imbalance must be in [0, 1)");
  HEPEX_REQUIRE(finite_nonneg(comm.base_bytes),
                "communication base volume must be finite and >= 0");
  HEPEX_REQUIRE(comm.rounds >= 0, "communication rounds must be >= 0");
  HEPEX_REQUIRE(finite_nonneg(comm.size_cv),
                "message-size cv must be finite and >= 0");
  HEPEX_REQUIRE(finite_nonneg(sync.base_cycles),
                "sync base cycles must be finite and >= 0");
  HEPEX_REQUIRE(finite_nonneg(sync.cycles_per_total_core),
                "sync growth cycles must be finite and >= 0");
}

ProgramSpec with_input_class(const ProgramSpec& program, InputClass cls) {
  const double n_old = grid_dimension(program.input);
  const double n_new = grid_dimension(cls);
  const double volume_ratio = std::pow(n_new / n_old, 3.0);
  const double surface_ratio = std::pow(n_new / n_old, 2.0);

  ProgramSpec out = program;
  out.input = cls;
  out.iterations = iteration_count(cls);
  out.compute.instructions_per_iter *= volume_ratio;
  out.compute.working_set_bytes *= volume_ratio;
  out.comm.base_bytes *= program.comm.pattern == CommPattern::kAllToAll
                             ? volume_ratio
                             : surface_ratio;
  return out;
}

}  // namespace hepex::workload
