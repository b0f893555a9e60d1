#pragma once
/// \file programs.hpp
/// \brief The five validation programs of the paper (§IV-B).
///
/// | Program | Suite              | Language | Domain                        | Pattern     |
/// |---------|--------------------|----------|-------------------------------|-------------|
/// | LU      | NPB3.3-MZ          | Fortran  | 3D Navier-Stokes (SSOR)       | wavefront   |
/// | SP      | NPB3.3-MZ          | Fortran  | 3D Navier-Stokes (penta-diag) | halo-3d     |
/// | BT      | NPB3.3-MZ          | Fortran  | 3D Navier-Stokes (block tri)  | halo-3d     |
/// | CP      | Quantum Espresso   | Fortran  | electronic structure (CPMD)   | all-to-all  |
/// | LB      | OpenLB             | C++      | lattice Boltzmann CFD         | ring        |
///
/// Demand signatures are calibrated to the published behaviour: BT is the
/// most compute-dense (highest UCR), SP is memory-hungry enough that eight
/// Xeon cores contend for DRAM, LU sends many small wavefront messages,
/// CP's transposes flood the network at scale, and LB is bandwidth-bound
/// with synchronisation overhead that grows with total core count.

#include <vector>

#include "workload/program.hpp"

namespace hepex::workload {

/// NPB Block Tri-diagonal solver at the given input class.
ProgramSpec make_bt(InputClass cls = InputClass::kA);
/// NPB Lower-Upper Gauss-Seidel (SSOR) solver.
ProgramSpec make_lu(InputClass cls = InputClass::kA);
/// NPB Scalar Penta-diagonal solver.
ProgramSpec make_sp(InputClass cls = InputClass::kA);
/// Quantum-Espresso-style Car-Parrinello molecular dynamics.
ProgramSpec make_cp(InputClass cls = InputClass::kA);
/// OpenLB-style lattice Boltzmann lid-driven cavity.
ProgramSpec make_lb(InputClass cls = InputClass::kA);

/// All five programs at one input class, in the paper's table order
/// (LU, SP, BT, CP, LB).
std::vector<ProgramSpec> all_programs(InputClass cls = InputClass::kA);

/// --- extensions beyond the paper's validation set -----------------------
/// The paper argues its approach applies to generic hybrid programs and
/// validates on a representative five. HEPEX additionally models three
/// more NPB kernels with distinct demand signatures:
///  - MG: V-cycle multigrid — halo exchanges at every level, hence many
///    rounds; bandwidth-leaning compute.
///  - FT: 3D FFT — one full complex-array transpose (all-to-all) per
///    step, cache-friendly butterflies in between.
///  - CG: conjugate gradient — latency-bound irregular SpMV plus many
///    tiny reduction messages per iteration.

/// NPB Multigrid V-cycle solver (extension).
ProgramSpec make_mg(InputClass cls = InputClass::kA);
/// NPB 3D Fast Fourier Transform (extension).
ProgramSpec make_ft(InputClass cls = InputClass::kA);
/// NPB Conjugate Gradient (extension).
ProgramSpec make_cg(InputClass cls = InputClass::kA);

/// The full extended suite: the paper's five plus MG, FT, CG.
std::vector<ProgramSpec> extended_programs(InputClass cls = InputClass::kA);

/// Resolve a program reference. Bare names look up the analytic registry
/// key; `source:`-prefixed references dispatch to that workload source
/// (`"trace:run.trace"`, `"synthetic:ai=60"` — see workload/source.hpp).
/// Throws std::invalid_argument naming the known keys for unknown names.
ProgramSpec program_by_name(const std::string& name,
                            InputClass cls = InputClass::kA);

}  // namespace hepex::workload
