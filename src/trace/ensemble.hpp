#pragma once
/// \file ensemble.hpp
/// \brief Monte-Carlo ensembles of simulated runs (fault studies, jitter
///        statistics) with deterministic per-replica seeding.
///
/// A fault study asks "what does the *distribution* of outcomes look
/// like at this failure rate?" — one seeded run is a single sample. An
/// ensemble runs R replicas of the same (machine, program, config)
/// execution, each with its own derived RNG streams, and returns the
/// measurements in replica order.
///
/// Determinism: replica i's workload seed and fault-plan seed are pure
/// functions of the base seeds and i (`replica_seed`, a SplitMix64
/// scramble), and each replica owns a private `sim::Simulator`, RNG and
/// fault-plan clone. Replicas therefore never share mutable state, and
/// the returned vector is bit-identical whether the ensemble runs on one
/// thread or many (pinned by tests/par/test_parallel_determinism.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/execution_engine.hpp"
#include "util/statistics.hpp"

namespace hepex::trace {

/// The i-th replica's derived seed: SplitMix64 applied to `base ^ i+1`
/// so consecutive replicas get decorrelated streams and replica 0 does
/// not alias the base seed's original stream.
std::uint64_t replica_seed(std::uint64_t base, std::size_t replica);

/// Run `replicas` independent executions of (machine, program, config)
/// on up to `jobs` threads (par::resolve_jobs semantics; 0 = configured
/// default). Replica i runs with `seed = replica_seed(base.seed, i)` and,
/// when `base.faults` is set, a private plan clone whose seed is
/// `replica_seed(base.faults->seed, i)`. Results are in replica order and
/// bit-identical at any job count.
///
/// `base.has_sinks()` must be false: sinks are single-consumer, and
/// sharing one across replicas would race. A replica's own sinks attach
/// to a plain `simulate` with the replica's seeds; the measurement is the
/// same bit for bit.
std::vector<Measurement> simulate_ensemble(const hw::MachineSpec& machine,
                                           const workload::ProgramSpec& program,
                                           const hw::ClusterConfig& config,
                                           const SimOptions& base,
                                           std::size_t replicas, int jobs = 0);

/// Aggregate view of an ensemble for reports and the CLI.
struct EnsembleSummary {
  util::Summary time_s;        ///< wall time per replica [s]
  util::Summary energy_j;      ///< total energy per replica [J]
  util::Summary fault_time_s;  ///< T_fault per replica [s]
  std::size_t completed = 0;   ///< replicas that ran to completion
  std::size_t aborted = 0;     ///< replicas ended by the abort policy
  int crashes = 0;             ///< node deaths across all replicas
  int recoveries = 0;          ///< completed recoveries across replicas
};

/// Fold measurements (in order) into an EnsembleSummary.
EnsembleSummary summarize_ensemble(const std::vector<Measurement>& runs);

}  // namespace hepex::trace
