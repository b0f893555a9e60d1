#include "trace/execution_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/dvfs_policy.hpp"
#include "obs/log.hpp"
#include "par/cancel.hpp"
#include "obs/registry.hpp"
#include "obs/span_agg.hpp"
#include "obs/trace_sink.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hepex::trace {
namespace {

using hw::ClusterConfig;
using hw::MachineSpec;
using workload::ProgramSpec;

// Trace-lane layout (docs/observability.md): within a node's pid, tids
// 0..cores-1 are the compute lanes; the node's shared components get
// fixed high tids so they never collide with a core index.
constexpr int kMemLane = 100;      // memory-controller service
constexpr int kStackLane = 101;    // MPI/TCP stack processing
constexpr int kBarrierLane = 102;  // barrier waits + DVFS markers
// A pseudo-process (pid = nodes) carries cluster-wide lanes.
constexpr int kSwitchLane = 0;     // store-and-forward wire transfers
constexpr int kIterationLane = 1;  // iteration phase spans
// Table marker for the spans drawn on the lane of the core that ran them.
constexpr int kCoreLane = -1;

/// Every span the engine emits (docs/observability.md, span table).
enum class Span : std::uint8_t {
  kCompute, kMemStall, kDramService, kMsgStack, kWire, kBarrierWait,
  kIteration, kRecovery, kCheckpoint, kStraggler, kCount
};

/// One span kind: its timeline name and category, its lane, and the
/// SpanAggregator category it folds into. Spans of kClusterNode go on the
/// cluster pseudo-process. A kind without a timeline name is folded but
/// not drawn: a straggler's stretch already lies inside its compute span.
struct SpanKind {
  std::string_view name;
  std::string_view category;
  int lane;
  std::string_view aggregate;
};

// Rows in Span order.
constexpr std::array<SpanKind, static_cast<std::size_t>(Span::kCount)>
    kSpanKinds = {{
        {"compute", "cpu", kCoreLane, "compute"},
        {"mem stall", "mem", kCoreLane, "memory"},
        {"dram service", "mem", kMemLane, "mem.service"},
        {"msg stack", "net", kStackLane, "network.stack"},
        {"wire", "net", kSwitchLane, "network.wire"},
        {"barrier wait", "sync", kBarrierLane, "barrier"},
        {"iter N", "phase", kIterationLane, "iteration"},
        {"recovery", "fault", kIterationLane, "fault"},
        {"checkpoint", "fault", kIterationLane, "fault"},
        {"", "", kCoreLane, "fault"},  // straggler: folded only
    }};

/// Every trace-only marker: an instant on a lane, and for frequency
/// changes a sample of the node's "f [GHz]" counter.
enum class Mark : std::uint8_t {
  kCrash, kAbort, kThrottle, kDropRetx, kDvfs, kCount
};

struct MarkKind {
  std::string_view name;
  std::string_view category;
  int lane;
};

// Rows in Mark order.
constexpr std::array<MarkKind, static_cast<std::size_t>(Mark::kCount)>
    kMarkKinds = {{
        {"node crash", "fault", kBarrierLane},
        {"abort", "fault", kIterationLane},
        {"thermal throttle", "fault", kBarrierLane},
        {"drop+retx", "fault", kSwitchLane},
        {"dvfs", "dvfs", kBarrierLane},
    }};

constexpr int kClusterNode = obs::SpanAggregator::kClusterNode;

/// Mutable state of one simulated run. Lives on the stack of simulate();
/// event callbacks capture a pointer to it, and the event calendar drains
/// before simulate() returns, so the pointer never dangles.
struct Run {
  const MachineSpec& machine;
  const ProgramSpec& program;
  const ClusterConfig cfg;
  const SimOptions& opt;
  /// Every process's per-iteration messages (η, ν); held here once so
  /// the send loop's continuations need not carry it.
  const workload::CommShape comm;

  sim::Simulator sim;
  util::Rng rng;

  std::vector<std::unique_ptr<sim::Resource>> mem;    // one per node
  std::vector<std::unique_ptr<sim::Resource>> stack;  // per-node MPI/TCP stack
  std::unique_ptr<sim::Resource> net;                 // the shared switch

  // Per-thread execution state, reset each iteration.
  struct Thread {
    int process = 0;          // owning node / MPI rank
    int chunks_left = 0;
    q::Seconds compute_chunk_s{};
    q::Seconds mem_service_chunk_s{};
    q::Seconds credit_s{};    // DRAM service hideable under the next chunk
  };
  std::vector<Thread> threads;

  // Per-node runtime frequency (DVFS policies may change it between
  // iterations; constant within one iteration). `f_base` is the
  // configured/policy-chosen frequency; `f_node` is what actually runs
  // (equal to f_base unless a thermal throttle window caps it).
  std::vector<q::Hertz> f_node;
  std::vector<q::Hertz> f_base;
  hw::DvfsPolicy* policy = nullptr;

  // ---- fault-injection state (inert when `inj` is null) ----
  fault::Injector* inj = nullptr;
  std::vector<char> node_dead;   // fail-stopped nodes awaiting recovery
  int epoch = 0;                 // bumped on recovery; stale events no-op
  bool aborted = false;
  int spares_left = 0;
  sim::SimTime last_checkpoint_s{};
  sim::SimTime finish_s{};       // completion/abort time (excludes stray
                                 // post-run fault events in the calendar)
  q::Seconds t_fault_s{};
  q::Joules e_fault_j{};
  FaultStats fstats;

  // Iteration bookkeeping.
  int iteration = 0;
  sim::SimTime iteration_start_s{};
  int threads_running = 0;
  std::vector<int> proc_threads_left;  // per process, threads still computing
  int procs_comm_pending = 0;          // processes still in their MPI phase
  int msgs_in_flight = 0;              // messages not yet received+processed
  std::vector<sim::SimTime> node_busy_until;  // last busy time per node

  // Per-iteration, per-node CPU accounting (folded into energy with the
  // node's frequency at every iteration boundary).
  std::vector<q::Seconds> iter_act_s;    // compute incl. overlapped portion
  std::vector<q::Seconds> iter_stall_s;  // memory stalls after overlap credit
  std::vector<q::Seconds> iter_comm_s;   // messaging-stack CPU seconds

  // Accumulated observables.
  HardwareCounters counters;
  MessageProfile messages;
  q::Seconds active_full_s{};
  q::Seconds stall_net_s{};
  q::Seconds comm_sw_s{};
  q::Seconds net_busy_s{};
  q::Joules e_cpu_active_j{};
  q::Joules e_cpu_stall_j{};
  // Node-resolved shares of the totals above (always kept; plain
  // accumulations, so they cannot perturb the run).
  std::vector<NodeUsage> node_usage;
  util::Summary slack_fraction;
  util::Summary iteration_s;
  util::Summary drain_s;
  q::Hertz f_weighted_sum{};  // sum over (node, iteration) of f
  int f_samples = 0;

  // Observability hooks (all null on the default, zero-overhead path).
  obs::TraceSink* sink = nullptr;
  obs::Registry* reg = nullptr;
  obs::SpanAggregator* agg = nullptr;
  // One cached category handle per span kind: the hot paths fold millions
  // of spans, and a Recorder resolves the category map entry once instead
  // of per span. Resolution stays lazy, so category order (and output) is
  // first-record order.
  std::array<obs::SpanAggregator::Recorder, kSpanKinds.size()> rec;
  obs::Histogram* h_mem_depth = nullptr;
  obs::Histogram* h_mem_wait = nullptr;
  obs::Histogram* h_barrier_wait = nullptr;
  obs::Histogram* h_msg_bytes = nullptr;
  obs::Counter* c_dvfs = nullptr;

  Run(const MachineSpec& m, const ProgramSpec& p, const ClusterConfig& c,
      const SimOptions& o)
      : machine(m), program(p), cfg(c), opt(o),
        comm(p.comm_shape(c.nodes)), rng(o.seed) {
    for (int i = 0; i < cfg.nodes; ++i) {
      mem.push_back(std::make_unique<sim::Resource>(sim));
      stack.push_back(std::make_unique<sim::Resource>(sim));
    }
    net = std::make_unique<sim::Resource>(sim);
    threads.resize(static_cast<std::size_t>(cfg.nodes) * cfg.cores);
    for (int p_id = 0; p_id < cfg.nodes; ++p_id) {
      for (int t = 0; t < cfg.cores; ++t) {
        threads[static_cast<std::size_t>(p_id) * cfg.cores + t].process = p_id;
      }
    }
    const auto nodes = static_cast<std::size_t>(cfg.nodes);
    proc_threads_left.assign(nodes, 0);
    f_node.assign(nodes, cfg.f_hz);
    f_base.assign(nodes, cfg.f_hz);
    node_busy_until.assign(nodes, sim::SimTime{});
    iter_act_s.assign(nodes, q::Seconds{});
    iter_stall_s.assign(nodes, q::Seconds{});
    iter_comm_s.assign(nodes, q::Seconds{});
    node_usage.assign(nodes, NodeUsage{});
    policy = opt.dvfs_policy.get();
    sink = opt.trace;
    reg = opt.metrics;
    agg = opt.spans;
    attach_observability();
  }

  const hw::Isa& isa() const { return machine.node.isa; }
  q::Hertz f_of(int node) const {
    return f_node[static_cast<std::size_t>(node)];
  }
  void touch(int node) {
    node_busy_until[static_cast<std::size_t>(node)] = sim.now();
  }
  int lane_of(std::size_t tid) const {
    return static_cast<int>(tid) % cfg.cores;
  }
  int cluster_pid() const { return cfg.nodes; }
  bool is_dead(int node) const {
    return inj != nullptr && node_dead[static_cast<std::size_t>(node)] != 0;
  }
  bool any_dead() const {
    for (char d : node_dead) {
      if (d != 0) return true;
    }
    return false;
  }
  bool done() const { return iteration >= program.iterations; }

  /// The one place a span leaves the engine: drawn on the timeline when a
  /// TraceSink is attached, folded into the span statistics when a
  /// SpanAggregator is. `node` is kClusterNode for cluster-wide spans;
  /// `core` picks the lane of the core-lane kinds; `name`, when given,
  /// replaces the table's timeline name (the iteration span's "iter N").
  void span(Span kind, int node, sim::SimTime start, q::Seconds dur,
            int core = 0, std::string_view name = {}) {
    const auto k = static_cast<std::size_t>(kind);
    const SpanKind& sk = kSpanKinds[k];
    if (sink != nullptr && !sk.name.empty()) {
      sink->complete(node == kClusterNode ? cluster_pid() : node,
                     sk.lane == kCoreLane ? core : sk.lane,
                     name.empty() ? sk.name : name, sk.category,
                     start.value(), dur.value());
    }
    if (agg != nullptr) rec[k].record(node, dur.value());
  }

  /// A trace-only marker at `at`; frequency changes (`f` non-zero) also
  /// sample the node's "f [GHz]" counter.
  void mark(Mark kind, int node, sim::SimTime at, q::Hertz f = {}) {
    if (sink == nullptr) return;
    const MarkKind& mk = kMarkKinds[static_cast<std::size_t>(kind)];
    const int pid = node == kClusterNode ? cluster_pid() : node;
    sink->instant(pid, mk.lane, mk.name, mk.category, at.value());
    if (f > q::Hertz{}) {
      sink->counter(pid, "f [GHz]", at.value(), f.value() / 1e9);
    }
  }

  // ---- fault wiring ------------------------------------------------------

  /// Register the plan's crash sources on the calendar. Must run before
  /// the first begin_iteration().
  void attach_faults(fault::Injector* injector) {
    inj = injector;
    node_dead.assign(static_cast<std::size_t>(cfg.nodes), 0);
    spares_left = inj->plan().recovery.spare_nodes;
    for (const auto& c : inj->plan().crashes) {
      sim.schedule_at(sim::SimTime{c.at_s},
                      [this, node = c.node] { node_crash(node); });
    }
    if (inj->plan().random_failures.node_mtbf_s > 0.0) schedule_next_failure();
  }

  void schedule_next_failure() {
    sim.schedule(inj->next_failure_gap(), [this] {
      if (aborted || done()) return;
      node_crash(inj->pick_victim());
      schedule_next_failure();
    });
  }

  /// Fail-stop: the node goes silent. Its pending contributions to the
  /// iteration barrier never arrive; the barrier-timeout watchdog armed
  /// by begin_iteration() notices and triggers recovery.
  void node_crash(int node) {
    if (aborted || done() || node_dead[static_cast<std::size_t>(node)]) return;
    node_dead[static_cast<std::size_t>(node)] = 1;
    ++fstats.crashes;
    mark(Mark::kCrash, node, sim.now());
    HEPEX_LOG_WARN("engine", "node crash",
                   {{"node", node},
                    {"t", sim.now().value()},
                    {"iter", iteration},
                    {"seed", opt.seed}});
  }

  void arm_watchdog() {
    sim.schedule(q::Seconds{inj->plan().recovery.barrier_timeout_s},
                 [this, e = epoch, it = iteration] { watchdog_fire(e, it); });
  }

  void watchdog_fire(int e, int it) {
    if (aborted || e != epoch || it != iteration || done()) return;
    if (!any_dead()) {
      // The iteration is slow, not dead — keep watching.
      arm_watchdog();
      return;
    }
    recover_or_abort();
  }

  void abort_run() {
    aborted = true;
    ++epoch;
    finish_s = sim.now();
    mark(Mark::kAbort, kClusterNode, sim.now());
    HEPEX_LOG_WARN("engine", "run aborted",
                   {{"t", sim.now().value()},
                    {"iterations_done", iteration},
                    {"seed", opt.seed}});
  }

  /// Checkpoint/restart recovery, as a coordinated-checkpoint cost model:
  /// the crashed node is replaced by a spare, the iterations completed
  /// since the last checkpoint are charged again as rework (time at the
  /// run's average dynamic CPU power), the restart downtime is idle, and
  /// the hung iteration re-executes for real.
  void recover_or_abort() {
    const auto& rec = inj->plan().recovery;
    int dead = 0;
    for (char d : node_dead) dead += d;
    // 100k recoveries means the failure rate outpaces progress; abort
    // rather than simulate forever.
    if (rec.mode == fault::RecoveryMode::kAbort || spares_left < dead ||
        fstats.recoveries >= 100000) {
      abort_run();
      return;
    }
    ++epoch;  // strand every event of the abandoned attempt
    spares_left -= dead;
    fstats.spares_used += dead;
    ++fstats.recoveries;
    std::fill(node_dead.begin(), node_dead.end(), char{0});

    const sim::SimTime detect = sim.now();
    const q::Seconds rework =
        std::max(q::Seconds{}, iteration_start_s - last_checkpoint_s);
    const q::Seconds downtime{rec.restart_s};
    t_fault_s += rework + downtime;
    fstats.rework_s += rework;
    fstats.downtime_s += downtime;
    const q::Watts p_dyn = detect > sim::SimTime{}
                               ? (e_cpu_active_j + e_cpu_stall_j) / detect
                               : q::Watts{};
    e_fault_j += rework * p_dyn;

    span(Span::kRecovery, kClusterNode, detect, downtime + rework);
    HEPEX_LOG_WARN("engine", "checkpoint restart",
                   {{"t", detect.value()},
                    {"iter", iteration},
                    {"rework_s", rework.value()},
                    {"downtime_s", downtime.value()},
                    {"seed", opt.seed}});
    const sim::SimTime resume_at = detect + downtime + rework;
    last_checkpoint_s = resume_at;
    sim.schedule_at(resume_at, [this, e = epoch] {
      if (aborted || e != epoch) return;
      begin_iteration();  // redo the hung iteration from checkpoint state
    });
  }

  /// Coordinated checkpoint at an iteration barrier when the interval
  /// elapsed. Returns true when it scheduled the next iteration itself.
  bool take_checkpoint() {
    const auto& rec = inj->plan().recovery;
    if (rec.mode != fault::RecoveryMode::kCheckpointRestart ||
        rec.checkpoint_interval_s <= 0.0 || !inj->has_crash_sources()) {
      return false;
    }
    if (sim.now() - last_checkpoint_s < q::Seconds{rec.checkpoint_interval_s}) {
      return false;
    }
    const q::Seconds w{rec.checkpoint_write_s};
    ++fstats.checkpoints;
    fstats.checkpoint_s += w;
    t_fault_s += w;
    e_fault_j += cfg.nodes * machine.node.power.mem_active_w * w;
    last_checkpoint_s = sim.now() + w;
    span(Span::kCheckpoint, kClusterNode, sim.now(), w);
    sim.schedule(w, [this, e = epoch] {
      if (aborted || e != epoch) return;
      begin_iteration();
    });
    return true;
  }

  /// Highest DVFS operating point not above `cap` (the lowest point when
  /// even that exceeds the cap — a core cannot clock below f_min).
  q::Hertz throttle_point(q::Hertz cap) const {
    const auto& fs = machine.node.dvfs.frequencies_hz;
    q::Hertz best = fs.front();
    for (q::Hertz f : fs) {
      if (f <= cap) best = f;  // ascending: last match is the highest
    }
    return best;
  }

  /// Apply active thermal-throttle windows on top of the policy-chosen
  /// frequencies for the iteration that starts now.
  void apply_thermal_caps() {
    bool any = false;
    for (int node = 0; node < cfg.nodes; ++node) {
      const auto ni = static_cast<std::size_t>(node);
      const q::Hertz cap = inj->f_cap_hz(node, sim.now());
      q::Hertz f = f_base[ni];
      if (cap < f) {
        f = throttle_point(cap);
        any = true;
      }
      if (f != f_node[ni]) mark(Mark::kThrottle, node, sim.now(), f);
      f_node[ni] = f;
    }
    if (any) ++fstats.throttled_iterations;
  }

  // ---- observability wiring ----------------------------------------------

  /// Name the timeline tracks, create the metric instruments, and attach
  /// passive observers to the queueing resources; a run without sinks
  /// attaches nothing. Nothing here (or in any other obs hook) schedules
  /// events or consumes randomness, so the simulated execution is
  /// bit-identical with or without it.
  void attach_observability() {
    if (sink == nullptr && reg == nullptr && agg == nullptr) return;
    if (agg != nullptr) {
      for (std::size_t k = 0; k < kSpanKinds.size(); ++k) {
        rec[k] = agg->recorder(kSpanKinds[k].aggregate);
      }
    }
    if (sink != nullptr) {
      for (int i = 0; i < cfg.nodes; ++i) {
        sink->set_process_name(i, "node" + std::to_string(i));
        for (int t = 0; t < cfg.cores; ++t) {
          sink->set_thread_name(i, t, "core" + std::to_string(t));
        }
        sink->set_thread_name(i, kMemLane, "memctl");
        sink->set_thread_name(i, kStackLane, "netstack");
        sink->set_thread_name(i, kBarrierLane, "barrier");
        sink->counter(i, "f [GHz]", 0.0, cfg.f_hz.value() / 1e9);
      }
      sink->set_process_name(cluster_pid(), "cluster");
      sink->set_thread_name(cluster_pid(), kSwitchLane, "switch");
      sink->set_thread_name(cluster_pid(), kIterationLane, "iterations");
    }
    if (reg != nullptr) {
      h_mem_depth = &reg->histogram(
          "mem.queue_depth", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
      h_mem_wait = &reg->histogram(
          "mem.wait_s", {0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
      h_barrier_wait = &reg->histogram(
          "barrier.wait_s", {0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
      h_msg_bytes = &reg->histogram(
          "net.msg_bytes",
          {64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0});
      c_dvfs = &reg->counter("dvfs.transitions");
    }
    for (int i = 0; i < cfg.nodes; ++i) {
      mem[static_cast<std::size_t>(i)]->set_observer(
          [this, i](const sim::Resource&,
                    const sim::Resource::JobObservation& jo) {
            span(Span::kDramService, i, jo.start_s, jo.service_s);
            if (h_mem_depth != nullptr) {
              h_mem_depth->observe(
                  static_cast<double>(jo.depth_at_arrival));
            }
            if (h_mem_wait != nullptr) {
              h_mem_wait->observe(jo.waited_s.value());
            }
          });
      stack[static_cast<std::size_t>(i)]->set_observer(
          [this, i](const sim::Resource&,
                    const sim::Resource::JobObservation& jo) {
            span(Span::kMsgStack, i, jo.start_s, jo.service_s);
          });
    }
    net->set_observer([this](const sim::Resource&,
                             const sim::Resource::JobObservation& jo) {
      span(Span::kWire, kClusterNode, jo.start_s, jo.service_s);
    });
  }

  // ---- per-iteration setup ------------------------------------------------

  void begin_iteration() {
    // Cooperative deadline checkpoint (par/cancel.hpp): a cancelled or
    // expired run abandons at the next iteration boundary — one relaxed
    // atomic load per iteration (and a clock read under a deadline),
    // invisible to results when no token is installed.
    par::check_cancel();
    if (inj != nullptr) apply_thermal_caps();
    const auto& comp = program.compute;
    const double cpi = isa().work_cpi * comp.cpi_factor;
    const double stall_rate =
        isa().pipeline_stall_per_work_cycle * comp.stall_factor;

    iteration_start_s = sim.now();

    // Process-level split of the iteration's instructions. Process 0
    // (the boundary/IO rank) may carry extra load: that asymmetry is the
    // inter-node slack a DVFS policy reclaims.
    const double per_process_mean = comp.instructions_per_iter / cfg.nodes;

    // Streaming traffic is gated by the process's shared footprint;
    // reusable traffic by the per-thread window against a thread's share
    // of the hierarchy.
    const double stream_mult = machine.node.cache.dram_fraction_shared(
        program.working_set_per_process(cfg.nodes), cfg.cores);
    const double reuse_mult = machine.node.cache.dram_fraction(
        comp.reuse_window_bytes, cfg.cores);
    const double dram_bytes_per_instr =
        comp.bytes_per_instruction * stream_mult +
        comp.reuse_bytes_per_instruction * reuse_mult;
    const auto& ms = machine.node.memory;

    const double sync_cycles = program.sync.cycles(hw::total_cores(cfg));
    const int K = std::max(1, opt.chunks_per_iteration);

    threads_running = static_cast<int>(threads.size());
    std::fill(proc_threads_left.begin(), proc_threads_left.end(), cfg.cores);
    procs_comm_pending = cfg.nodes;
    msgs_in_flight = 0;

    for (std::size_t i = 0; i < threads.size(); ++i) {
      Thread& t = threads[i];
      const int lane = static_cast<int>(i) % cfg.cores;
      const q::Hertz f = f_of(t.process);

      double node_factor = 1.0;
      if (cfg.nodes > 1 && comp.node_imbalance > 0.0) {
        node_factor = (t.process == 0)
                          ? 1.0 + comp.node_imbalance
                          : 1.0 - comp.node_imbalance / (cfg.nodes - 1);
      }
      const double per_process = per_process_mean * node_factor;
      const double serial = per_process * comp.serial_fraction;
      const double parallel = per_process - serial;

      double imb = 1.0;
      if (cfg.cores > 1) {
        imb = (lane == 0) ? 1.0 + comp.imbalance
                          : 1.0 - comp.imbalance / (cfg.cores - 1);
      }
      double instr = parallel / cfg.cores * imb;
      if (lane == 0) instr += serial;

      const double cv = inj != nullptr
                            ? inj->jitter_cv(opt.jitter_cv, sim.now())
                            : opt.jitter_cv;
      const double jitter = cv > 0.0 ? rng.lognormal_mean(1.0, cv) : 1.0;
      const double w = instr * cpi * jitter + sync_cycles;
      const double b = instr * cpi * jitter * stall_rate;

      counters.instructions += instr + sync_cycles / cpi;
      counters.work_cycles += w;
      counters.nonmem_stall_cycles += b;

      const q::Bytes dram_bytes{instr * dram_bytes_per_instr};
      const double misses = dram_bytes / ms.line_bytes;
      const q::Seconds service = dram_bytes / ms.bandwidth_bytes_per_s +
                                 misses * ms.latency_s /
                                     isa().memory_level_parallelism;

      t.chunks_left = K;
      t.compute_chunk_s = (w + b) / K / f;
      t.mem_service_chunk_s = service / K;
      t.credit_s = q::Seconds{};

      const q::Seconds full = (w + b) / f;
      active_full_s += full;
      iter_act_s[static_cast<std::size_t>(t.process)] += full;
      node_usage[static_cast<std::size_t>(t.process)].compute_s += full;
      // Start the thread's chunk ladder directly instead of scheduling a
      // zero-delay "kick" event per core (n*c calendar round-trips per
      // iteration). A direct call is the kick's fire-immediately
      // semantics: the guards the kick checked (aborted, epoch) are
      // invariantly false/current inside begin_iteration, thread_step
      // re-checks node death itself, and the compute events it schedules
      // get the same relative sequence order the kicks produced — so
      // measurements are bit-identical (pinned by the golden
      // calendar-equivalence suite).
      thread_step(i);
    }

    // Failure detection: a watchdog re-arms every barrier_timeout_s until
    // this iteration's barrier releases (the epoch/iteration captures make
    // stale watchdogs no-ops).
    if (inj != nullptr && inj->has_crash_sources()) arm_watchdog();
  }

  // ---- compute phase ------------------------------------------------------

  void thread_step(std::size_t tid) {
    Thread& t = threads[tid];
    if (aborted || is_dead(t.process)) return;  // the node went silent
    if (t.chunks_left == 0) {
      thread_done(t.process);
      return;
    }
    --t.chunks_left;

    // Apply overlap credit: part of the previous DRAM service executed
    // this chunk's instructions already.
    const q::Seconds used = std::min(t.credit_s, t.compute_chunk_s);
    t.credit_s = q::Seconds{};
    stall_net_s -= used;
    iter_stall_s[static_cast<std::size_t>(t.process)] -= used;
    node_usage[static_cast<std::size_t>(t.process)].stall_s -= used;
    counters.mem_stall_cycles -= used * f_of(t.process);
    q::Seconds eff_compute = t.compute_chunk_s - used;
    if (inj != nullptr) {
      // Straggler windows stretch the chunk; the extra wall time burns
      // active-core power and is attributed to E_fault.
      const double slow = inj->compute_slowdown(t.process, sim.now());
      if (slow > 1.0) {
        const q::Seconds extra = eff_compute * (slow - 1.0);
        eff_compute += extra;
        fstats.straggler_s += extra;
        e_fault_j += extra * machine.node.power.core.active_at(
                                 f_of(t.process), machine.node.dvfs);
        span(Span::kStraggler, t.process, sim.now(), extra);
      }
    }

    sim.schedule(eff_compute, [this, tid, eff_compute, e = epoch] {
      if (aborted || e != epoch) return;
      Thread& th = threads[tid];
      if (is_dead(th.process)) return;
      touch(th.process);
      if (eff_compute > q::Seconds{}) {
        span(Span::kCompute, th.process, sim.now() - eff_compute, eff_compute,
             lane_of(tid));
      }
      if (th.mem_service_chunk_s <= q::Seconds{}) {
        thread_step(tid);
        return;
      }
      const q::Seconds service = th.mem_service_chunk_s;
      mem[static_cast<std::size_t>(th.process)]->request(
          service, [this, tid, service, e2 = epoch](sim::SimTime waited) {
            if (aborted || e2 != epoch) return;
            Thread& th2 = threads[tid];
            if (is_dead(th2.process)) return;
            const q::Seconds stall = waited + service;
            stall_net_s += stall;
            iter_stall_s[static_cast<std::size_t>(th2.process)] += stall;
            node_usage[static_cast<std::size_t>(th2.process)].stall_s +=
                stall;
            counters.mem_stall_cycles += stall * f_of(th2.process);
            th2.credit_s = isa().memory_overlap * service;
            touch(th2.process);
            // The core-side view of the same interval the memctl lane
            // shows: queueing delay plus DRAM service.
            span(Span::kMemStall, th2.process, sim.now() - stall, stall,
                 lane_of(tid));
            thread_step(tid);
          });
    });
  }

  void thread_done(int process) {
    --threads_running;
    touch(process);
    if (--proc_threads_left[static_cast<std::size_t>(process)] == 0) {
      start_comm(process);
    }
  }

  // ---- communication phase ------------------------------------------------

  void start_comm(int process) {
    if (comm.messages == 0) {
      process_comm_done();
      return;
    }
    msgs_in_flight += comm.messages;
    send_next(process, 0);
  }

  void send_next(int process, int idx) {
    if (aborted || is_dead(process)) return;  // sender died mid-phase
    if (idx == comm.messages) {
      process_comm_done();
      return;
    }
    // Per-message CPU cost of the MPI/TCP stack on the sending core.
    const q::Seconds sw_s = isa().message_software_cycles / f_of(process);
    comm_sw_s += sw_s;
    iter_comm_s[static_cast<std::size_t>(process)] += sw_s;
    node_usage[static_cast<std::size_t>(process)].comm_s += sw_s;
    counters.comm_software_cycles += isa().message_software_cycles;

    const double size = std::max(
        1.0, rng.lognormal_mean(comm.bytes_per_msg, program.comm.size_cv));
    messages.messages += 1.0;
    messages.bytes += q::Bytes{size};
    messages.per_msg_bytes.add(size);
    if (h_msg_bytes != nullptr) h_msg_bytes->observe(size);

    const int dest =
        cfg.nodes > 1 ? (process + 1 + idx % (cfg.nodes - 1)) % cfg.nodes
                      : process;

    // Send-side stack processing serializes with this node's receive
    // processing on the messaging context.
    stack[static_cast<std::size_t>(process)]->request(
        sw_s,
        [this, process, idx, size, dest, e = epoch](sim::SimTime) {
          if (aborted || e != epoch) return;
          if (is_dead(process)) return;
          touch(process);
          transmit(dest, size, /*attempt=*/0);
          // The send is buffered: the core moves to the next message
          // while the wire transfer proceeds.
          send_next(process, idx + 1);
        });
  }

  /// Occupy the wire for one transfer attempt. Under an active network
  /// degradation window the transfer may be dropped at completion, in
  /// which case the sender backs off exponentially and retransmits; after
  /// `max_retransmits` attempts the message is delivered regardless so an
  /// adversarial drop rate cannot hang the run.
  void transmit(int dest, double size, int attempt) {
    const q::Seconds wire =
        inj != nullptr
            ? inj->wire_time(machine.network, q::Bytes{size}, sim.now())
            : machine.network.wire_time(q::Bytes{size});
    net_busy_s += wire;
    net->request(wire, [this, dest, size, attempt, e = epoch](sim::SimTime) {
      if (aborted || e != epoch) return;
      if (inj != nullptr && attempt < inj->plan().max_retransmits &&
          inj->drop_message(sim.now())) {
        ++fstats.messages_dropped;
        ++fstats.retransmits;
        mark(Mark::kDropRetx, kClusterNode, sim.now());
        const q::Seconds backoff =
            q::Seconds{inj->plan().retransmit_timeout_s} *
            static_cast<double>(1u << std::min(attempt, 20));
        sim.schedule(backoff, [this, dest, size, attempt, e2 = epoch] {
          if (aborted || e2 != epoch) return;
          transmit(dest, size, attempt + 1);
        });
        return;
      }
      message_delivered(dest);
    });
  }

  void message_delivered(int dest) {
    if (aborted || is_dead(dest)) return;  // receiver died; barrier hangs
    // Receive-side stack processing serializes on the destination node's
    // interrupt-handling core (one message at a time) — for many-small-
    // message programs this is a genuine bottleneck. It happens while
    // the node is otherwise waiting at the barrier, so it does not move
    // the node's busy horizon, but its cost burns CPU energy and delays
    // the global barrier.
    const q::Seconds sw_s = isa().message_software_cycles / f_of(dest);
    comm_sw_s += sw_s;
    iter_comm_s[static_cast<std::size_t>(dest)] += sw_s;
    node_usage[static_cast<std::size_t>(dest)].comm_s += sw_s;
    counters.comm_software_cycles += isa().message_software_cycles;
    stack[static_cast<std::size_t>(dest)]->request(
        sw_s, [this, e = epoch](sim::SimTime) {
          if (aborted || e != epoch) return;
          if (--msgs_in_flight == 0) maybe_end_iteration();
        });
  }

  void process_comm_done() {
    --procs_comm_pending;
    maybe_end_iteration();
  }

  void maybe_end_iteration() {
    if (threads_running != 0 || procs_comm_pending != 0 ||
        msgs_in_flight != 0) {
      return;
    }
    end_iteration();
    ++iteration;
    if (iteration >= program.iterations) {
      // Record completion now: stray fault events (failure draws,
      // watchdogs) may still sit in the calendar and advance sim.now().
      finish_s = sim.now();
      return;
    }
    if (inj != nullptr && take_checkpoint()) return;
    begin_iteration();
  }

  /// Fold this iteration's per-node CPU time into energy at the node's
  /// frequency, observe barrier slack, and let the DVFS policy choose
  /// next-iteration frequencies.
  void end_iteration() {
    const auto& pw = machine.node.power;
    const auto& dvfs = machine.node.dvfs;
    const sim::SimTime barrier_at = sim.now();
    const q::Seconds iter_len =
        std::max(q::Seconds{1e-12}, barrier_at - iteration_start_s);
    // Reclaimable slack is measured against the *laggard* node, not the
    // barrier: the message-drain tail after every node finished injecting
    // is shared, and slowing down cannot reclaim it.
    sim::SimTime laggard_busy = iteration_start_s;
    for (sim::SimTime b : node_busy_until) {
      laggard_busy = std::max(laggard_busy, b);
    }
    iteration_s.add(iter_len.value());
    drain_s.add(std::max(q::Seconds{}, barrier_at - laggard_busy).value());

    span(Span::kIteration, kClusterNode, iteration_start_s, iter_len, 0,
         "iter " + std::to_string(iteration));

    for (int node = 0; node < cfg.nodes; ++node) {
      const auto ni = static_cast<std::size_t>(node);
      const q::Hertz f = f_node[ni];
      // One product, added to the cluster total and the node's row: the
      // cluster sums stay bit-identical to the pre-attribution fold.
      const q::Joules e_act =
          pw.core.active_at(f, dvfs) * (iter_act_s[ni] + iter_comm_s[ni]);
      const q::Joules e_stall = pw.core.stall_at(f, dvfs) * iter_stall_s[ni];
      e_cpu_active_j += e_act;
      e_cpu_stall_j += e_stall;
      node_usage[ni].cpu_active_j += e_act;
      node_usage[ni].cpu_stall_j += e_stall;
      iter_act_s[ni] = iter_stall_s[ni] = iter_comm_s[ni] = q::Seconds{};

      hw::SlackObservation obs;
      obs.node = node;
      obs.iteration = iteration;
      obs.f_current_hz = f;
      obs.f_configured_hz = cfg.f_hz;
      obs.busy_until_s = node_busy_until[ni];
      obs.barrier_at_s = barrier_at;
      obs.busy_fraction = std::clamp(
          (node_busy_until[ni] - iteration_start_s) / iter_len, 0.0, 1.0);
      obs.slack_fraction = std::clamp(
          (laggard_busy - node_busy_until[ni]) / iter_len, 0.0, 1.0);
      slack_fraction.add(obs.slack_fraction);
      f_weighted_sum += f;
      ++f_samples;

      const q::Seconds wait = barrier_at - node_busy_until[ni];
      if (wait > q::Seconds{}) {
        node_usage[ni].barrier_s += wait;
        span(Span::kBarrierWait, node, node_busy_until[ni], wait);
        if (h_barrier_wait != nullptr) h_barrier_wait->observe(wait.value());
      }

      if (policy != nullptr) {
        const q::Hertz next = policy->next_frequency(obs, dvfs);
        HEPEX_REQUIRE(dvfs.supports(next),
                      "DVFS policy returned a non-operating-point frequency");
        if (next != f) {
          mark(Mark::kDvfs, node, barrier_at, next);
          if (c_dvfs != nullptr) c_dvfs->inc();
          HEPEX_LOG_DEBUG("engine", "dvfs transition",
                          {{"node", node},
                           {"iter", iteration},
                           {"from_ghz", f.value() / 1e9},
                           {"to_ghz", next.value() / 1e9}});
        }
        f_base[ni] = next;
        f_node[ni] = next;
      }
    }
  }

  // ---- wrap-up --------------------------------------------------------------

  Measurement finalize() {
    Measurement out;
    out.config = cfg;
    out.time_s = finish_s;
    out.counters = counters;
    out.messages = messages;

    const q::Seconds busy = active_full_s + stall_net_s + comm_sw_s;
    out.counters.cpu_busy_seconds = busy;
    out.cpu_utilization =
        busy / (static_cast<double>(hw::total_cores(cfg)) * out.time_s);

    for (const auto& m : mem) out.mem_busy_s += m->busy_time();
    out.net_busy_s = net_busy_s;

    const auto& pw = machine.node.power;
    out.energy.cpu_active_j = e_cpu_active_j;
    out.energy.cpu_stall_j = e_cpu_stall_j;
    out.energy.mem_j = pw.mem_active_w * out.mem_busy_s;
    out.energy.net_j = pw.net_active_w * out.net_busy_s;
    out.energy.idle_j = pw.sys_idle_w * out.time_s * cfg.nodes;
    out.energy.fault_j = e_fault_j;

    // Node-resolved rows: fill the finalize-time components (controller
    // busy time and the per-node idle floor) and hand the vector over.
    for (int node = 0; node < cfg.nodes; ++node) {
      const auto ni = static_cast<std::size_t>(node);
      NodeUsage& nu = node_usage[ni];
      nu.mem_busy_s = mem[ni]->busy_time();
      nu.mem_j = pw.mem_active_w * nu.mem_busy_s;
      nu.idle_j = pw.sys_idle_w * out.time_s;
    }
    out.per_node = node_usage;
    out.t_fault_s = t_fault_s;
    out.faults = fstats;
    out.outcome = aborted ? RunOutcome::kAborted : RunOutcome::kCompleted;

    // Average wall-clock compute per core: equals (w+b)/(n c f) when the
    // frequency stays fixed, and generalises to DVFS runs.
    out.t_cpu_s =
        active_full_s / static_cast<double>(hw::total_cores(cfg));
    out.slack_fraction = slack_fraction;
    out.iteration_s = iteration_s;
    out.drain_s = drain_s;
    out.avg_frequency_hz =
        f_samples > 0 ? f_weighted_sum / f_samples : cfg.f_hz;

    if (reg != nullptr) {
      reg->counter("sim.events_processed").add(sim.total_processed());
      reg->counter("sim.events_scheduled").add(sim.total_scheduled());
      // Allocation accounting for the zero-alloc steady-state claim
      // (docs/performance.md): action-pool chunks are the only path that
      // can reach operator new on the event hot path, so slot_chunks
      // against events_processed gives heap allocations per event.
      const sim::CalendarStats cal = sim.calendar_stats();
      reg->counter("sim.calendar.slot_acquires").add(cal.slot_acquires);
      reg->counter("sim.calendar.slot_chunks").add(cal.slot_chunks);
      reg->counter("sim.calendar.slot_high_water").add(cal.slot_high_water);
      reg->counter("sim.calendar.peak_pending").add(cal.peak_pending);
      reg->counter("engine.iterations")
          .add(static_cast<std::uint64_t>(iteration));
      reg->counter("net.messages")
          .add(static_cast<std::uint64_t>(messages.messages));
      reg->counter("net.bytes")
          .add(static_cast<std::uint64_t>(messages.bytes.value()));
      reg->gauge("sim.virtual_time_s").set(out.time_s.value());
      reg->gauge("sim.events_per_virtual_s")
          .set(out.time_s > q::Seconds{}
                   ? static_cast<double>(sim.total_processed()) /
                         out.time_s.value()
                   : 0.0);
      reg->gauge("net.utilization").set(net->utilization());
      double mem_util = 0.0;
      for (const auto& m : mem) mem_util += m->utilization();
      reg->gauge("mem.utilization_mean").set(mem_util / cfg.nodes);
      reg->gauge("cpu.utilization").set(out.cpu_utilization);
      reg->gauge("engine.avg_frequency_ghz")
          .set(out.avg_frequency_hz.value() / 1e9);
      if (inj != nullptr) {
        reg->counter("fault.crashes")
            .add(static_cast<std::uint64_t>(fstats.crashes));
        reg->counter("fault.recoveries")
            .add(static_cast<std::uint64_t>(fstats.recoveries));
        reg->counter("fault.checkpoints")
            .add(static_cast<std::uint64_t>(fstats.checkpoints));
        reg->counter("fault.messages_dropped")
            .add(static_cast<std::uint64_t>(fstats.messages_dropped));
        reg->counter("fault.retransmits")
            .add(static_cast<std::uint64_t>(fstats.retransmits));
        reg->gauge("fault.t_fault_s").set(t_fault_s.value());
        reg->gauge("fault.e_fault_j").set(e_fault_j.value());
      }
    }
    return out;
  }
};

}  // namespace

Measurement simulate(const MachineSpec& machine, const ProgramSpec& program,
                     const ClusterConfig& config, const SimOptions& options) {
  hw::validate_config(machine, config, /*require_physical=*/true);
  program.validate();
  HEPEX_REQUIRE(options.chunks_per_iteration >= 1,
                "need >= 1 chunk per iteration");
  HEPEX_REQUIRE(std::isfinite(options.jitter_cv) && options.jitter_cv >= 0.0,
                "jitter_cv must be finite and >= 0");

  HEPEX_LOG_INFO("engine", "simulate",
                 {{"machine", machine.name},
                  {"program", program.name},
                  {"n", config.nodes},
                  {"c", config.cores},
                  {"f_ghz", config.f_hz.value() / 1e9},
                  {"traced", options.trace != nullptr}});
  Run run(machine, program, config, options);
  std::optional<fault::Injector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
    injector.emplace(*options.faults, config.nodes);  // validates the plan
    run.attach_faults(&*injector);
  }
  run.begin_iteration();
  const std::size_t events = run.sim.run();
  HEPEX_ASSERT(run.aborted || run.iteration == program.iterations,
               "simulation ended before all iterations completed");
  Measurement out = run.finalize();
  HEPEX_LOG_DEBUG("engine", "simulate done",
                  {{"time_s", out.time_s.value()},
                   {"energy_j", out.energy.total().value()},
                   {"events", events}});
  return out;
}

}  // namespace hepex::trace
