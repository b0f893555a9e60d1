#include "model/characterization.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profiler.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"
#include "workload/programs.hpp"
#include "util/rng.hpp"

namespace hepex::model {

std::size_t Characterization::frequency_index(q::Hertz f_hz) const {
  const auto& fs = machine.node.dvfs.frequencies_hz;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    if (q::abs(fs[i] - f_hz) < q::Hertz{1e3}) return i;
  }
  fail_require("frequency is not an operating point");
}

const BaselinePoint& Characterization::at(int c, q::Hertz f_hz) const {
  HEPEX_REQUIRE(c >= 1 && c <= machine.node.cores, "core count out of range");
  return baseline[static_cast<std::size_t>(c - 1)][frequency_index(f_hz)];
}

namespace {

/// Power characterization: pipeline-stressing micro-benchmarks observed
/// through the wall meter. The meter's calibration offset (sigma given by
/// the machine preset) lands on every reading, so the characterized
/// parameters differ slightly from ground truth — the paper's third
/// source of inaccuracy (§IV-C).
PowerCharacterization characterize_power(const hw::MachineSpec& m,
                                         const CharacterizationOptions& opt) {
  PowerCharacterization out;
  util::Rng rng(opt.meter_seed ^ 0xB0BACAFEULL);
  const double sigma =
      opt.exact_power ? 0.0 : m.node.power.meter_offset_sigma_w.value();
  const auto& dvfs = m.node.dvfs;
  const int c = m.node.cores;

  // Each micro-benchmark is metered `power_readings` times and averaged;
  // a single wall reading carries the full calibration sigma, so the
  // residual parameter error is ~sigma / (c * sqrt(readings)) per core.
  const int reps = std::max(1, opt.power_readings);
  auto metered = [&](q::Watts true_w) {
    double sum = 0.0;
    for (int r = 0; r < reps; ++r) {
      sum += true_w.value() + rng.normal(0.0, sigma);
    }
    return q::Watts{sum / reps};
  };

  // Idle reading: the whole node, nothing running.
  out.sys_idle_w = metered(m.node.power.sys_idle_w);

  for (q::Hertz f : dvfs.frequencies_hz) {
    // Spin benchmark: c cores executing work cycles; the meter reads
    // idle + c * P_act.
    const q::Watts spin_reading =
        metered(m.node.power.sys_idle_w +
                c * m.node.power.core.active_at(f, dvfs));
    out.core_active_w.push_back((spin_reading - out.sys_idle_w) / c);

    // Pointer-chase benchmark: c cores stalled on memory, controller
    // busy. Subtract the datasheet memory power as the paper does.
    const q::Watts stall_reading =
        metered(m.node.power.sys_idle_w +
                c * m.node.power.core.stall_at(f, dvfs) +
                m.node.power.mem_active_w);
    out.core_stall_w.push_back(
        (stall_reading - out.sys_idle_w - m.node.power.mem_active_w) / c);
  }

  // P_mem from the JEDEC datasheet; P_net measured directly at the NIC.
  out.mem_active_w = m.node.power.mem_active_w;
  out.net_active_w = m.node.power.net_active_w +
                     q::Watts{rng.normal(0.0, 0.1 * sigma)};
  return out;
}

}  // namespace

Characterization characterize(const hw::MachineSpec& machine,
                              const workload::ProgramSpec& program,
                              const CharacterizationOptions& options) {
  HEPEX_PROFILE_SCOPE("model.characterize");
  // Fail fast on malformed demands: programs may now arrive from any
  // workload source (trace files, synthetic references, user
  // registrations), not only the vetted factories.
  program.validate();
  HEPEX_REQUIRE(options.baseline_class < program.input,
                "baseline input class must be smaller than the target");

  Characterization ch;
  ch.machine = machine;
  ch.program_name = program.name;
  ch.baseline_class = options.baseline_class;
  ch.pattern = program.comm.pattern;

  // The baseline program P_s: same code, smaller input. Rescaling the
  // spec keeps characterization open to user-defined programs, not only
  // the built-in registry.
  workload::ProgramSpec ps =
      workload::with_input_class(program, options.baseline_class);
  ch.baseline_iterations = ps.iterations;
  ch.baseline_cells =
      std::pow(static_cast<double>(
                   workload::grid_dimension(options.baseline_class)),
               3.0);

  // Baseline counter sweep: single node, every (c, f). Point j is
  // (c, f) = (j / nf + 1, fs[j % nf]) and lands in its own slot.
  const auto& fs = machine.node.dvfs.frequencies_hz;
  const std::size_t nf = fs.size();
  const auto cores = static_cast<std::size_t>(machine.node.cores);
  ch.baseline.assign(cores, std::vector<BaselinePoint>(nf));
  const auto run_point = [&](std::size_t j) {
    const hw::ClusterConfig cfg{1, static_cast<int>(j / nf) + 1,
                                fs[j % nf]};
    const trace::Measurement meas =
        trace::simulate(machine, ps, cfg, options.sim);
    BaselinePoint& pt = ch.baseline[j / nf][j % nf];
    pt.work_cycles = meas.counters.work_cycles;
    pt.nonmem_stalls = meas.counters.nonmem_stall_cycles;
    pt.mem_stalls = meas.counters.mem_stall_cycles;
    pt.utilization = meas.cpu_utilization;
    pt.instructions = meas.counters.instructions;
  };
  const std::size_t points = cores * nf;
  if (options.sim.has_sinks() || options.sim.dvfs_policy != nullptr) {
    for (std::size_t j = 0; j < points; ++j) run_point(j);
  } else {
    // Every run takes the same options.sim, so the runs are independent
    // and fan out on the par pool. A run's cost grows with c, so the pool
    // sees the points in reverse: costliest first.
    par::parallel_for(points,
                      [&](std::size_t k) { run_point(points - 1 - k); });
  }

  // Communication probe (mpiP) and network sweep (NetPIPE).
  ch.comm = trace::profile_messages(machine, ps, options.comm_probe_nodes);
  ch.network = trace::netpipe_sweep(machine, machine.node.dvfs.f_max());
  // The ping-pong latency at 1 byte is two software traversals plus a
  // negligible wire time; halving it isolates the per-message CPU cost.
  ch.msg_software_s_at_fmax = ch.network.base_latency_s / 2.0;

  ch.power = characterize_power(machine, options);
  return ch;
}

}  // namespace hepex::model
