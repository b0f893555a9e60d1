#pragma once
/// \file program.hpp
/// \brief The hybrid-program abstraction (the paper's Listing 1).
///
/// A `ProgramSpec` describes a hybrid MPI+OpenMP program as `S` iterations
/// of a compute phase executed by τ threads per process followed by an MPI
/// communication phase among ℓ processes. The spec carries the program's
/// *intrinsic* resource demands (instructions, memory traffic, working
/// set, message pattern); how those demands turn into time and energy is
/// the job of the machine model — either simulated (trace) or predicted
/// (model).

#include <string>

#include "workload/comm_pattern.hpp"
#include "workload/input_class.hpp"

namespace hepex::workload {

/// Compute-phase demands per iteration (totals across all threads).
struct ComputeSpec {
  /// Instructions executed per iteration, summed over all threads.
  double instructions_per_iter = 1e9;
  /// Program factor on the ISA's work CPI (instruction-mix effect).
  double cpi_factor = 1.0;
  /// Program factor on the ISA's non-memory stall rate (`b` in the paper).
  double stall_factor = 1.0;
  /// Streaming (compulsory) DRAM traffic per instruction [bytes]: grid
  /// sweeps with no inter-iteration reuse. Filtered by the cache only
  /// when the whole per-process footprint fits.
  double bytes_per_instruction = 1.0;
  /// Reusable traffic per instruction [bytes]: solver blocks / FFT tiles
  /// revisited within a reuse window. Reaches DRAM only when the window
  /// exceeds a thread's cache share — the mechanism that separates a
  /// 20 MB-L3 Xeon from a 1 MB-L2 ARM node.
  double reuse_bytes_per_instruction = 0.0;
  /// Per-thread reuse window [bytes] (independent of n and c).
  double reuse_window_bytes = 2.5e6;
  /// Resident working set of one process's grid data [bytes]. Threads of
  /// a process share this footprint in the node's shared caches.
  double working_set_bytes = 32e6;
  /// Fraction of per-iteration work that only one thread can execute
  /// (Amdahl's serial fraction).
  double serial_fraction = 0.005;
  /// Load imbalance: the heaviest thread carries (1 + imbalance) times the
  /// mean per-thread load.
  double imbalance = 0.03;
  /// Process-level imbalance: process 0 (boundary handling, I/O rank)
  /// carries (1 + node_imbalance) times the mean per-process load. This
  /// is the inter-node slack that runtime DVFS policies reclaim.
  double node_imbalance = 0.0;
};

/// Synchronisation overhead executed by *every* thread each iteration.
/// The affine growth with total cores reproduces the paper's observation
/// (§IV-C) that LB "incurs more instructions on higher number of nodes at
/// higher number of cores" — extra work the analytical model does not see.
struct SyncSpec {
  double base_cycles = 20e3;             ///< fixed barrier/fork-join cost
  double cycles_per_total_core = 300.0;  ///< growth with n * c

  /// Cycles added per thread per iteration at n*c total cores.
  double cycles(int total_cores) const {
    return base_cycles + cycles_per_total_core * total_cores;
  }
};

/// A complete hybrid program at a specific input class.
struct ProgramSpec {
  std::string name;      ///< e.g. "BT"
  std::string suite;     ///< e.g. "NPB3.3-MZ"
  std::string language;  ///< "Fortran" or "C++"
  std::string domain;    ///< application domain for reports
  InputClass input = InputClass::kA;
  int iterations = 60;   ///< S

  ComputeSpec compute;
  CommSpec comm;
  SyncSpec sync;

  /// η, ν for n processes (delegates to the comm pattern).
  CommShape comm_shape(int n) const { return comm.shape(n); }

  /// Total instructions over the whole run (compute phases only).
  double total_instructions() const {
    return compute.instructions_per_iter * iterations;
  }

  /// Per-process working set when the domain is split across n processes.
  double working_set_per_process(int n) const;

  /// Check every demand parameter is finite and in range (iterations >= 1,
  /// non-negative traffic/working set, serial fraction and imbalances in
  /// [0, 1), positive CPI factor). The execution engine validates specs on
  /// entry so a NaN demand fails fast instead of corrupting a simulation.
  /// Throws std::invalid_argument on the first violation.
  void validate() const;
};

/// Rescale a program to another input class: instructions and working set
/// grow with the grid volume, halo/wavefront/ring communication with the
/// grid surface, all-to-all transposes with the volume; per-instruction
/// intensities and sync constants are size-independent. For the built-in
/// factory programs this reproduces the factory at the new class exactly;
/// for user-defined programs it is how the characterization pass derives
/// the smaller baseline input P_s.
ProgramSpec with_input_class(const ProgramSpec& program, InputClass cls);

}  // namespace hepex::workload
