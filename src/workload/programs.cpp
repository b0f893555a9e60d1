#include "workload/programs.hpp"

#include <cmath>

#include "workload/source.hpp"

namespace hepex::workload {
namespace {

/// Shared scaffolding: grid-derived quantities for a cubic N^3 domain.
struct GridScale {
  double cells;    // N^3
  double surface;  // N^2
  int iterations;  // S

  explicit GridScale(InputClass cls)
      : cells(std::pow(static_cast<double>(grid_dimension(cls)), 3.0)),
        surface(std::pow(static_cast<double>(grid_dimension(cls)), 2.0)),
        iterations(iteration_count(cls)) {}
};

}  // namespace

ProgramSpec make_bt(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "BT";
  p.suite = "NPB3.3-MZ";
  p.language = "Fortran";
  p.domain = "3D Navier-Stokes Equation Solver";
  p.input = cls;
  p.iterations = g.iterations;

  // Block tri-diagonal: dense 5x5 block solves per cell -- the most
  // compute per byte of the NPB trio.
  p.compute.instructions_per_iter = 100e3 * g.cells;
  p.compute.cpi_factor = 1.0;
  p.compute.stall_factor = 1.0;
  p.compute.bytes_per_instruction = 0.065;
  p.compute.reuse_bytes_per_instruction = 1.0;
  p.compute.reuse_window_bytes = 2.5e6;
  p.compute.working_set_bytes = 1200.0 * g.cells;
  p.compute.serial_fraction = 0.004;
  p.compute.imbalance = 0.03;

  p.comm.pattern = CommPattern::kHalo3D;
  p.comm.base_bytes = 40.0 * g.surface;
  p.comm.rounds = 1;

  p.sync.base_cycles = 20e3;
  p.sync.cycles_per_total_core = 300.0;
  return p;
}

ProgramSpec make_lu(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "LU";
  p.suite = "NPB3.3-MZ";
  p.language = "Fortran";
  p.domain = "3D Navier-Stokes Equation Solver";
  p.input = cls;
  p.iterations = g.iterations;

  // SSOR sweeps: lighter per-cell arithmetic, frequent small pencil
  // exchanges along the wavefront.
  p.compute.instructions_per_iter = 52e3 * g.cells;
  p.compute.cpi_factor = 0.95;
  p.compute.stall_factor = 1.15;
  p.compute.bytes_per_instruction = 0.26;
  p.compute.reuse_bytes_per_instruction = 0.45;
  p.compute.reuse_window_bytes = 2.0e6;
  p.compute.working_set_bytes = 1500.0 * g.cells;
  p.compute.serial_fraction = 0.010;
  p.compute.imbalance = 0.05;

  p.comm.pattern = CommPattern::kWavefront;
  p.comm.base_bytes = 40.0 * g.surface;
  p.comm.rounds = 16;

  p.sync.base_cycles = 25e3;
  p.sync.cycles_per_total_core = 400.0;
  return p;
}

ProgramSpec make_sp(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "SP";
  p.suite = "NPB3.3-MZ";
  p.language = "Fortran";
  p.domain = "3D Navier-Stokes Equation Solver";
  p.input = cls;
  p.iterations = g.iterations;

  // Scalar penta-diagonal: long scalar line solves streaming several
  // solution arrays -- notably more memory traffic than BT.
  p.compute.instructions_per_iter = 64e3 * g.cells;
  p.compute.cpi_factor = 1.0;
  p.compute.stall_factor = 1.0;
  p.compute.bytes_per_instruction = 0.20;
  p.compute.reuse_bytes_per_instruction = 0.50;
  p.compute.reuse_window_bytes = 2.2e6;
  p.compute.working_set_bytes = 1600.0 * g.cells;
  p.compute.serial_fraction = 0.005;
  p.compute.imbalance = 0.04;

  p.comm.pattern = CommPattern::kHalo3D;
  p.comm.base_bytes = 100.0 * g.surface;
  p.comm.rounds = 2;

  p.sync.base_cycles = 20e3;
  p.sync.cycles_per_total_core = 350.0;
  return p;
}

ProgramSpec make_cp(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "CP";
  p.suite = "Quantum Espresso (v5.1)";
  p.language = "Fortran";
  p.domain = "Electronic-structure Calculations";
  p.input = cls;
  p.iterations = g.iterations;

  // Car-Parrinello MD: FFT-heavy compute with personalised all-to-all
  // transposes whose aggregate volume does not shrink with n.
  p.compute.instructions_per_iter = 180e3 * g.cells;
  p.compute.cpi_factor = 1.10;
  p.compute.stall_factor = 1.25;
  p.compute.bytes_per_instruction = 0.20;
  p.compute.reuse_bytes_per_instruction = 0.50;
  p.compute.reuse_window_bytes = 2.6e6;
  p.compute.working_set_bytes = 1400.0 * g.cells;
  p.compute.serial_fraction = 0.020;
  p.compute.imbalance = 0.08;

  p.comm.pattern = CommPattern::kAllToAll;
  // Each transpose moves several complex wavefunction bands, so the
  // aggregate volume is a multiple of the grid footprint.
  p.comm.base_bytes = 40.0 * g.cells;
  p.comm.rounds = 3;

  p.sync.base_cycles = 40e3;
  p.sync.cycles_per_total_core = 900.0;
  return p;
}

ProgramSpec make_lb(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "LB";
  p.suite = "OpenLB (olb-0.8r0)";
  p.language = "C++";
  p.domain = "Computational Fluid Dynamics";
  p.input = cls;
  p.iterations = g.iterations;

  // D3Q19 stream/collide: few instructions per cell but the full
  // distribution set (19 doubles) streams through memory every step.
  p.compute.instructions_per_iter = 38e3 * g.cells;
  p.compute.cpi_factor = 0.90;
  p.compute.stall_factor = 0.90;
  p.compute.bytes_per_instruction = 1.0;
  p.compute.reuse_bytes_per_instruction = 0.35;
  p.compute.reuse_window_bytes = 2.5e6;
  p.compute.working_set_bytes = 1800.0 * g.cells;
  p.compute.serial_fraction = 0.003;
  p.compute.imbalance = 0.02;

  p.comm.pattern = CommPattern::kRing;
  p.comm.base_bytes = 152.0 * g.surface;  // 19 doubles per face cell
  p.comm.rounds = 1;

  // The paper singles LB out: synchronisation work grows steeply with
  // l * tau, inflating instructions (and energy) at high core counts.
  p.sync.base_cycles = 30e3;
  p.sync.cycles_per_total_core = 1500.0;
  return p;
}

ProgramSpec make_mg(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "MG";
  p.suite = "NPB3.3-MZ";
  p.language = "Fortran";
  p.domain = "3D Poisson Equation (Multigrid)";
  p.input = cls;
  p.iterations = g.iterations;

  // V-cycle: light per-cell smoothing, several grid levels per
  // iteration, each with its own halo round.
  p.compute.instructions_per_iter = 30e3 * g.cells;
  p.compute.cpi_factor = 0.92;
  p.compute.stall_factor = 1.05;
  p.compute.bytes_per_instruction = 0.60;
  p.compute.reuse_bytes_per_instruction = 0.30;
  p.compute.reuse_window_bytes = 2.0e6;
  p.compute.working_set_bytes = 900.0 * g.cells;
  p.compute.serial_fraction = 0.008;
  p.compute.imbalance = 0.04;

  p.comm.pattern = CommPattern::kHalo3D;
  p.comm.base_bytes = 60.0 * g.surface;
  p.comm.rounds = 8;  // one exchange per multigrid level

  p.sync.base_cycles = 30e3;
  p.sync.cycles_per_total_core = 500.0;
  return p;
}

ProgramSpec make_ft(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "FT";
  p.suite = "NPB3.3-MZ";
  p.language = "Fortran";
  p.domain = "3D Fast Fourier Transform";
  p.input = cls;
  p.iterations = g.iterations;

  // Butterfly stages are cache-friendly; the transpose moves the whole
  // complex array across the cluster once per step.
  p.compute.instructions_per_iter = 120e3 * g.cells;
  p.compute.cpi_factor = 1.05;
  p.compute.stall_factor = 1.10;
  p.compute.bytes_per_instruction = 0.35;
  p.compute.reuse_bytes_per_instruction = 0.60;
  p.compute.reuse_window_bytes = 3.0e6;
  p.compute.working_set_bytes = 1280.0 * g.cells;
  p.compute.serial_fraction = 0.010;
  p.compute.imbalance = 0.05;

  p.comm.pattern = CommPattern::kAllToAll;
  p.comm.base_bytes = 16.0 * g.cells;  // one complex-array transpose
  p.comm.rounds = 1;

  p.sync.base_cycles = 35e3;
  p.sync.cycles_per_total_core = 700.0;
  return p;
}

ProgramSpec make_cg(InputClass cls) {
  const GridScale g(cls);
  ProgramSpec p;
  p.name = "CG";
  p.suite = "NPB3.3-MZ";
  p.language = "Fortran";
  p.domain = "Sparse Linear Algebra (Conjugate Gradient)";
  p.input = cls;
  p.iterations = g.iterations;

  // Irregular SpMV: latency-bound gathers, poor ILP, and a flurry of
  // tiny dot-product reductions every iteration.
  p.compute.instructions_per_iter = 25e3 * g.cells;
  p.compute.cpi_factor = 1.10;
  p.compute.stall_factor = 1.30;
  p.compute.bytes_per_instruction = 0.90;
  p.compute.reuse_bytes_per_instruction = 0.40;
  p.compute.reuse_window_bytes = 2.8e6;
  p.compute.working_set_bytes = 700.0 * g.cells;
  p.compute.serial_fraction = 0.015;
  p.compute.imbalance = 0.06;

  p.comm.pattern = CommPattern::kHalo3D;
  p.comm.base_bytes = 20.0 * g.surface;
  p.comm.rounds = 25;  // SpMV halo plus many small reductions

  p.sync.base_cycles = 40e3;
  p.sync.cycles_per_total_core = 650.0;
  return p;
}

std::vector<ProgramSpec> all_programs(InputClass cls) {
  return {make_lu(cls), make_sp(cls), make_bt(cls), make_cp(cls),
          make_lb(cls)};
}

std::vector<ProgramSpec> extended_programs(InputClass cls) {
  auto v = all_programs(cls);
  v.push_back(make_mg(cls));
  v.push_back(make_ft(cls));
  v.push_back(make_cg(cls));
  return v;
}

// The name-keyed registry lives in the workload-source spine now
// (workload/source.hpp): the analytic source owns the factory table plus
// any user-registered specs, and `program_by_name` accepts full
// `[source:]rest` references — `"SP"`, `"trace:run.trace"`,
// `"synthetic:ai=60"` — so every consumer that already goes through this
// function gains the new sources with zero per-consumer code.

ProgramSpec program_by_name(const std::string& name, InputClass cls) {
  return resolve_program(name, cls).program;
}

}  // namespace hepex::workload
