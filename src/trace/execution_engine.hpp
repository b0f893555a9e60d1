#pragma once
/// \file execution_engine.hpp
/// \brief Discrete-event execution of a hybrid program on a simulated cluster.
///
/// This is HEPEX's substitute for the paper's physical testbed. It runs a
/// `workload::ProgramSpec` on a `hw::MachineSpec` at one `(n, c, f)`
/// configuration and produces the observables the paper measures: wall
/// time, per-component energy, hardware counters and an mpiP-style message
/// profile.
///
/// Mechanisms simulated (each one a source of model-vs-measurement error
/// the paper discusses in §IV-C):
///  - per-node FCFS memory controller — intra-node contention (T_w,mem)
///  - single shared switch — inter-node network contention (T_w,net)
///  - out-of-order overlap of DRAM service with subsequent compute
///  - serial fraction, thread load imbalance, per-iteration barriers
///  - synchronisation work growing with total core count (LB's pathology)
///  - seeded log-normal OS jitter on every compute phase

#include <cstdint>
#include <memory>

#include "hw/dvfs_policy.hpp"
#include "hw/machine.hpp"
#include "trace/measurement.hpp"
#include "workload/program.hpp"

namespace hepex::obs {
class Registry;
class SpanAggregator;
class TraceSink;
}  // namespace hepex::obs

namespace hepex::fault {
struct Plan;
}  // namespace hepex::fault

namespace hepex::trace {

/// Tunables of the simulated execution.
struct SimOptions {
  /// Compute/memory interleave granularity per thread per iteration.
  /// More chunks -> finer-grained contention, more events.
  int chunks_per_iteration = 12;
  /// Coefficient of variation of the per-phase OS jitter (0 disables).
  double jitter_cv = 0.03;
  /// RNG seed; identical seeds give bit-identical measurements.
  std::uint64_t seed = 42;
  /// Optional per-node runtime frequency governor consulted at every
  /// iteration boundary; null keeps the configured frequency.
  std::shared_ptr<hw::DvfsPolicy> dvfs_policy;

  /// Optional timeline exporter (non-owning, may be null). When set, the
  /// engine records compute bursts, memory-controller queue/service
  /// intervals, per-message stack and wire spans, barrier waits and DVFS
  /// transitions as Chrome-trace spans with pid = node, tid = lane (see
  /// docs/observability.md). Attaching a sink is guaranteed not to
  /// perturb the run: the default null path allocates nothing and the
  /// resulting Measurement is bit-identical either way.
  obs::TraceSink* trace = nullptr;
  /// Optional metrics registry (non-owning, may be null). Populated with
  /// the catalogue in docs/observability.md: event counts, queue-depth
  /// and barrier-wait histograms, switch/memory utilization, message
  /// totals. Same zero-perturbation guarantee as `trace`.
  obs::Registry* metrics = nullptr;
  /// Optional streaming span aggregator (non-owning, may be null). The
  /// engine folds the same durations it would trace into fixed-memory
  /// per-category/per-node statistics (compute, memory, mem.service,
  /// network.stack, network.wire, barrier, iteration, fault). Same
  /// zero-perturbation guarantee as `trace`.
  obs::SpanAggregator* spans = nullptr;

  /// True when `trace`, `metrics` or `spans` is attached. Those sinks are
  /// single-consumer objects shared by every run given these options, so
  /// a sweep over runs must stay serial (or reject them) while this holds.
  bool has_sinks() const {
    return trace != nullptr || metrics != nullptr || spans != nullptr;
  }

  /// Optional fault-injection plan (non-owning, may be null). When set
  /// and non-empty, the engine runs in degraded mode: scheduled/random
  /// node crashes with barrier-timeout detection and abort or
  /// checkpoint/restart recovery, straggler and throttle windows,
  /// OS-jitter storms, and network degradation with drop + backoff
  /// retransmission. Recovery time and energy are attributed to the
  /// Measurement's `t_fault_s` / `energy.fault_j`. The plan carries its
  /// own RNG seed, so a null or empty plan leaves the run bit-identical
  /// to today's fault-free path. See docs/faults.md.
  const fault::Plan* faults = nullptr;
};

/// Execute `program` on `machine` at `config` and return the measurement.
/// Throws std::invalid_argument for configurations the machine cannot run
/// physically (n > nodes_available, unsupported c or f).
Measurement simulate(const hw::MachineSpec& machine,
                     const workload::ProgramSpec& program,
                     const hw::ClusterConfig& config,
                     const SimOptions& options = {});

}  // namespace hepex::trace
