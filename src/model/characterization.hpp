#pragma once
/// \file characterization.hpp
/// \brief Measurement-driven model inputs (the paper's §III-E).
///
/// Everything the analytical model is allowed to know about a program and
/// a machine is gathered here, exactly the way the paper gathers it:
///
/// 1. *Workload characterization* — baseline executions of a **smaller**
///    input P_s on a single node across every (c, f), reading hardware
///    counters: work cycles w_s, non-memory stalls b_s, memory stalls
///    m_s, utilization U_s.
/// 2. *Communication characterization* — an mpiP-style probe on two
///    nodes giving η (messages/process/iteration) and ν (bytes/message);
///    values at other n are inferred from the decomposition pattern.
/// 3. *Network characterization* — a NetPIPE sweep giving the achievable
///    throughput B and the per-message software latency.
/// 4. *Power characterization* — pipeline-stressing micro-benchmarks
///    through the wall meter giving P_core,act(f), P_core,stall(f),
///    P_sys,idle; P_mem from the JEDEC datasheet and P_net measured
///    directly.
///
/// The model never reads the simulator's ground-truth parameters; it only
/// sees these measured values (including their measurement noise), which
/// keeps the validation in §IV meaningful.

#include <cstdint>
#include <map>
#include <vector>

#include "hw/machine.hpp"
#include "util/quantity.hpp"
#include "trace/execution_engine.hpp"
#include "trace/netpipe.hpp"
#include "trace/profiler.hpp"
#include "workload/program.hpp"

namespace hepex::model {

/// Counter readings from one baseline run of P_s at (1, c, f).
struct BaselinePoint {
  double work_cycles = 0.0;    ///< w_s: total across the c cores
  double nonmem_stalls = 0.0;  ///< b_s
  double mem_stalls = 0.0;     ///< m_s
  double utilization = 0.0;    ///< U_s
  double instructions = 0.0;   ///< I_s
};

/// Characterized power parameters (Table 1, "Power Parameters").
struct PowerCharacterization {
  /// P_core,act and P_core,stall per DVFS operating point (same order as
  /// the machine's frequency list).
  std::vector<q::Watts> core_active_w;
  std::vector<q::Watts> core_stall_w;
  q::Watts mem_active_w{};  ///< from the memory datasheet
  q::Watts net_active_w{};  ///< measured directly
  q::Watts sys_idle_w{};    ///< metered idle system
};

/// Options for the characterization pass.
struct CharacterizationOptions {
  /// Input class of the baseline program P_s (must be smaller than the
  /// target program's class for a meaningful scale-out test).
  workload::InputClass baseline_class = workload::InputClass::kW;
  /// Nodes used by the communication probe.
  int comm_probe_nodes = 2;
  /// Simulation fidelity/seed for baseline runs.
  trace::SimOptions sim;
  /// Seed of the meter used during power characterization.
  std::uint64_t meter_seed = 7;
  /// Wall-meter readings averaged per power micro-benchmark.
  int power_readings = 10;
  /// Disable all measurement noise (unit tests).
  bool exact_power = false;
};

/// Complete model input for one (machine, program) pair.
struct Characterization {
  hw::MachineSpec machine;          ///< the characterized cluster
  std::string program_name;
  workload::InputClass baseline_class = workload::InputClass::kW;
  int baseline_iterations = 0;      ///< S_s
  double baseline_cells = 0.0;      ///< grid cells of P_s (public input size)

  /// Baseline counters indexed by [c-1][frequency index].
  std::vector<std::vector<BaselinePoint>> baseline;

  trace::CommProfile comm;                   ///< mpiP probe (n = probe)
  workload::CommPattern pattern;             ///< disclosed decomposition
  trace::NetworkCharacterization network;    ///< NetPIPE sweep
  PowerCharacterization power;               ///< metered power parameters

  /// Per-message CPU software latency at f_max, extracted from NetPIPE.
  q::Seconds msg_software_s_at_fmax{};

  /// Index of frequency `f_hz` in the machine's DVFS list; throws if the
  /// frequency is not an operating point.
  std::size_t frequency_index(q::Hertz f_hz) const;

  /// Baseline counters at (c, f); throws for out-of-range c.
  const BaselinePoint& at(int c, q::Hertz f_hz) const;
};

/// Run the full characterization pass for `program` on `machine`.
/// Performs cores x frequencies baseline simulations of the smaller input
/// plus the communication probe — the same measurements the paper makes.
/// `program` may come from any workload source (factory, trace replay,
/// synthetic generator, user registration); its demands are validated on
/// entry and `options.baseline_class` must be smaller than its input
/// class. Throws std::invalid_argument otherwise.
///
/// The baseline sweep runs on the par pool at the default job count
/// (`par::set_default_jobs`, the `--jobs` flag); the result is
/// bit-identical at any job count. It stays serial, in ascending (c, f)
/// order, in two cases:
///  - `options.sim.has_sinks()`: a trace sink, metrics registry or span
///    aggregator is single-consumer and would be shared by every run;
///  - `options.sim.dvfs_policy` is set: `DvfsPolicy::next_frequency` is
///    non-const, so a user policy may carry state from run to run.
/// The communication probe, the NetPIPE sweep and the power
/// characterization always run serially on the calling thread.
Characterization characterize(const hw::MachineSpec& machine,
                              const workload::ProgramSpec& program,
                              const CharacterizationOptions& options = {});

}  // namespace hepex::model
