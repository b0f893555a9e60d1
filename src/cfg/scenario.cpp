#include "cfg/scenario.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "cfg/fields.hpp"
#include "hw/presets.hpp"
#include "util/error.hpp"
#include "workload/programs.hpp"

namespace hepex::cfg {
namespace {

const Enum<hw::IsaFamily, 2> kIsaFamily{
    "ISA family",
    "x86_64 or armv7a",
    {{"x86_64", hw::IsaFamily::kX86_64}, {"armv7a", hw::IsaFamily::kArmV7A}}};

const Enum<fault::RecoveryMode, 2> kRecoveryMode{
    "recovery mode",
    "abort or restart",
    {{"abort", fault::RecoveryMode::kAbort},
     {"restart", fault::RecoveryMode::kCheckpointRestart}}};

}  // namespace

// --- field lists ----------------------------------------------------------
//
// One per spec struct, one line per key (cfg/fields.hpp). `visit(reader,
// x)` loads x; `visit(writer, value, base)` saves it. Adding a line here
// adds the key to scenario load, canonical save, the machine embedded in
// a characterization and `hepex workload show`.

template <class V, Of<hw::Isa>... S>
void visit(V& v, S&... s) {
  v.choice("family", kIsaFamily, s.family...);
  v.str("name", s.name...);
  v.num("work_cpi", s.work_cpi...);
  v.num("pipeline_stall_per_work_cycle", s.pipeline_stall_per_work_cycle...);
  v.num("memory_overlap", s.memory_overlap...);
  v.num("memory_level_parallelism", s.memory_level_parallelism...);
  v.num("message_software_cycles", s.message_software_cycles...);
}

template <class V, Of<hw::DvfsRange>... S>
void visit(V& v, S&... s) {
  v.freqs("frequencies", s.frequencies_hz...);
  v.num("v_min", s.v_min...);
  v.num("v_max", s.v_max...);
}

template <class V, Of<hw::CacheSpec>... S>
void visit(V& v, S&... s) {
  v.unit("l1_per_core", kSize, s.l1_per_core_bytes...);
  v.unit("l2_shared", kSize, s.l2_shared_bytes...);
  v.unit("l3_shared", kSize, s.l3_shared_bytes...);
  v.num("cold_miss_fraction", s.cold_miss_fraction...);
  v.num("knee", s.knee...);
}

template <class V, Of<hw::MemorySpec>... S>
void visit(V& v, S&... s) {
  v.unit("bandwidth", kByteRate, s.bandwidth_bytes_per_s...);
  v.unit("latency", kDuration, s.latency_s...);
  v.unit("capacity", kSize, s.capacity_bytes...);
  v.unit("line", kSize, s.line_bytes...);
}

template <class V, Of<hw::PowerSpec>... S>
void visit(V& v, S&... s) {
  v.num("core_active_coeff", s.core.active_coeff...);
  v.num("core_stall_fraction", s.core.stall_fraction...);
  v.unit("mem_active", kPower, s.mem_active_w...);
  v.unit("net_active", kPower, s.net_active_w...);
  v.unit("sys_idle", kPower, s.sys_idle_w...);
  v.unit("meter_offset_sigma", kPower, s.meter_offset_sigma_w...);
}

template <class V, Of<hw::NodeSpec>... S>
void visit(V& v, S&... s) {
  v.integer("cores", s.cores...);
  v.obj("isa", s.isa...);
  v.obj("dvfs", s.dvfs...);
  v.obj("cache", s.cache...);
  v.obj("memory", s.memory...);
  v.obj("power", s.power...);
}

template <class V, Of<hw::NetworkSpec>... S>
void visit(V& v, S&... s) {
  v.unit("bandwidth", kBandwidth, s.link_bits_per_s...);
  v.unit("switch_latency", kDuration, s.switch_latency_s...);
  v.unit("header_bytes_per_frame", kSize, s.header_bytes_per_frame...);
  v.unit("payload_bytes_per_frame", kSize, s.payload_bytes_per_frame...);
}

/// The platform's machine keys ("preset" is the caller's).
template <class V, Of<hw::MachineSpec>... S>
void visit(V& v, S&... s) {
  v.str("name", s.name...);
  v.integer("nodes_available", s.nodes_available...);
  v.nums("model_node_counts", s.model_node_counts...);
  v.obj("node", s.node...);
  v.obj("network", s.network...);
}

// The entry points scenario.hpp declares for other documents; the
// explicit template argument picks the list above.
void visit(Reader& r, hw::MachineSpec& m) { visit<Reader>(r, m); }
void visit(Writer& w, const hw::MachineSpec& m, const hw::MachineSpec& base) {
  visit<Writer>(w, m, base);
}

template <class V, Of<workload::ComputeSpec>... S>
void visit(V& v, S&... s) {
  v.num("instructions_per_iter", s.instructions_per_iter...);
  v.num("cpi_factor", s.cpi_factor...);
  v.num("stall_factor", s.stall_factor...);
  v.num("bytes_per_instruction", s.bytes_per_instruction...);
  v.num("reuse_bytes_per_instruction", s.reuse_bytes_per_instruction...);
  v.unit("reuse_window", kSize, s.reuse_window_bytes...);
  v.unit("working_set", kSize, s.working_set_bytes...);
  v.num("serial_fraction", s.serial_fraction...);
  v.num("imbalance", s.imbalance...);
  v.num("node_imbalance", s.node_imbalance...);
}

template <class V, Of<workload::CommSpec>... S>
void visit(V& v, S&... s) {
  v.choice("pattern", kCommPattern, s.pattern...);
  v.unit("base_bytes", kSize, s.base_bytes...);
  v.integer("rounds", s.rounds...);
  v.num("size_cv", s.size_cv...);
}

template <class V, Of<workload::SyncSpec>... S>
void visit(V& v, S&... s) {
  v.num("base_cycles", s.base_cycles...);
  v.num("cycles_per_total_core", s.cycles_per_total_core...);
}

/// The workload's program keys ("program", "class" and "grid" are the
/// caller's).
template <class V, Of<workload::ProgramSpec>... S>
void visit(V& v, S&... s) {
  v.str("name", s.name...);
  v.str("suite", s.suite...);
  v.str("language", s.language...);
  v.str("domain", s.domain...);
  v.integer("iterations", s.iterations...);
  v.obj("compute", s.compute...);
  v.obj("comm", s.comm...);
  v.obj("sync", s.sync...);
}

template <class V, Of<workload::SyntheticGrid>... S>
void visit(V& v, S&... s) {
  v.axis("ai", s.arithmetic_intensity...);
  v.axis("bpi", s.bytes_per_instruction...);
  v.axis("mi", s.message_intensity...);
  v.axis("imb", s.imbalance...);
  v.axis("sf", s.serial_fraction...);
  v.seed("seed", s.seed...);
}

template <class V, Of<fault::NodeCrash>... S>
void visit(V& v, S&... s) {
  v.integer(required("node"), s.node...);
  v.unit(required("at"), kDuration, s.at_s...);
}

template <class V, Of<fault::Straggler>... S>
void visit(V& v, S&... s) {
  v.integer(required("node"), s.node...);
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.num(required("slowdown"), s.slowdown...);
}

template <class V, Of<fault::Throttle>... S>
void visit(V& v, S&... s) {
  v.integer(required("node"), s.node...);
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.unit(required("f_cap"), kFrequency, s.f_cap_hz...);
}

template <class V, Of<fault::NetworkDegradation>... S>
void visit(V& v, S&... s) {
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.num("latency_mult", s.latency_mult...);
  v.num("bandwidth_mult", s.bandwidth_mult...);
  v.num("drop_prob", s.drop_prob...);
}

template <class V, Of<fault::JitterStorm>... S>
void visit(V& v, S&... s) {
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.num(required("jitter_cv"), s.jitter_cv...);
}

template <class V, Of<fault::RecoverySpec>... S>
void visit(V& v, S&... s) {
  v.choice("mode", kRecoveryMode, s.mode...);
  v.unit("barrier_timeout", kDuration, s.barrier_timeout_s...);
  v.unit("checkpoint_interval", kDuration, s.checkpoint_interval_s...);
  v.unit("checkpoint_write", kDuration, s.checkpoint_write_s...);
  v.unit("restart_cost", kDuration, s.restart_s...);
  v.integer("spare_nodes", s.spare_nodes...);
}

template <class V, Of<fault::Plan>... S>
void visit(V& v, S&... s) {
  v.seed("seed", s.seed...);
  v.unit("node_mtbf", kDuration, s.random_failures.node_mtbf_s...);
  v.objs("crashes", "crashes", s.crashes...);
  v.objs("stragglers", "stragglers", s.stragglers...);
  v.objs("throttles", "throttles", s.throttles...);
  v.objs("network_degradations", "degradation windows",
         s.net_degradations...);
  v.objs("jitter_storms", "jitter storms", s.jitter_storms...);
  v.obj("recovery", s.recovery...);
  v.unit("retransmit_timeout", kDuration, s.retransmit_timeout_s...);
  v.integer("max_retransmits", s.max_retransmits...);
}

template <class V, Of<SweepSpec>... S>
void visit(V& v, S&... s) {
  v.nums("nodes", s.nodes...);
  v.nums("cores", s.cores...);
  v.freqs("frequencies", s.frequencies...);
}

template <class V, Of<hw::ClusterConfig>... S>
void visit(V& v, S&... s) {
  v.integer("n", s.nodes...);
  v.integer("c", s.cores...);
  v.unit("f", kFrequency, s.f_hz...);
}

template <class V, Of<SimSettings>... S>
void visit(V& v, S&... s) {
  v.integer("chunks_per_iteration", s.chunks_per_iteration...);
  v.num("jitter_cv", s.jitter_cv...);
  v.seed("seed", s.seed...);
  v.integer("replicas", s.replicas...);
}

template <class V, Of<ObsSettings>... S>
void visit(V& v, S&... s) {
  v.str("log_level", s.log_level...);
  v.str("trace", s.trace_path...);
  v.str("metrics", s.metrics_path...);
  v.str("report", s.report_path...);
  v.boolean("profile", s.profile...);
}

namespace {

// --- known log levels (mirrors obs::log_level_from_string; cfg sits
// below obs in the library stack) ------------------------------------------

bool known_log_level(const std::string& s) {
  return s.empty() || s == "off" || s == "error" || s == "warn" ||
         s == "info" || s == "debug" || s == "trace";
}

[[noreturn]] void fail_log_level(const std::string& source,
                                 const std::string& level) {
  fail_at(source, "obs.log_level",
          "unknown log level '" + level +
              "' (use off, error, warn, info, debug or trace)");
}

}  // namespace

// --- Scenario methods -----------------------------------------------------

std::vector<hw::ClusterConfig> Scenario::sweep_configs() const {
  const std::vector<int>& nodes =
      sweep.nodes.empty() ? machine.model_node_counts : sweep.nodes;
  std::vector<int> cores = sweep.cores;
  if (cores.empty()) {
    for (int c = 1; c <= machine.node.cores; ++c) cores.push_back(c);
  }
  const std::vector<q::Hertz>& freqs = sweep.frequencies.empty()
                                           ? machine.node.dvfs.frequencies_hz
                                           : sweep.frequencies;
  std::vector<hw::ClusterConfig> out;
  out.reserve(nodes.size() * cores.size() * freqs.size());
  for (int n : nodes) {
    for (int c : cores) {
      for (q::Hertz f : freqs) {
        out.push_back(hw::ClusterConfig{n, c, f});
      }
    }
  }
  return out;
}

hw::ClusterConfig Scenario::single_config() const {
  if (config) return *config;
  return hw::ClusterConfig{1, machine.node.cores, machine.node.dvfs.f_max()};
}

std::vector<workload::ProgramSpec> Scenario::workload_programs() const {
  if (!workload_grid) return {program};
  std::vector<workload::ProgramSpec> out;
  const std::vector<workload::SyntheticSpec> points = workload_grid->expand();
  out.reserve(points.size());
  for (const workload::SyntheticSpec& pt : points) {
    out.push_back(workload::make_synthetic(pt, input));
  }
  return out;
}

void Scenario::validate() const {
  hw::validate_machine(machine);
  program.validate();
  HEPEX_REQUIRE(!program_name.empty() || !program.name.empty(),
                "scenario names no program");
  if (workload_grid) {
    // Hand-built scenarios reach here without the load-time expansion;
    // every point must be in range and under the cap.
    try {
      (void)workload_grid->expand();
    } catch (const std::invalid_argument& e) {
      rethrow_at(e, "scenario", "workload.grid");
    }
  }
  for (int n : sweep.nodes) {
    if (n < 1) fail_at("scenario", "sweep.nodes", "node counts must be >= 1");
  }
  for (int c : sweep.cores) {
    if (c < 1 || c > machine.node.cores) {
      fail_at("scenario", "sweep.cores",
              "core counts must be in [1, " +
                  std::to_string(machine.node.cores) + "]");
    }
  }
  for (q::Hertz f : sweep.frequencies) {
    if (!machine.node.dvfs.supports(f)) {
      fail_at("scenario", "sweep.frequencies",
              "frequency " + jn::number_to_string(f.value()) +
                  "Hz is not one of the machine's DVFS points");
    }
  }
  if (config) {
    try {
      hw::validate_config(machine, *config, /*require_physical=*/false);
    } catch (const std::invalid_argument& e) {
      fail_at("scenario", "config", e.what());
    }
  }
  if (faults) faults->validate(single_config().nodes);
  if (sim.chunks_per_iteration < 1) {
    fail_at("scenario", "sim.chunks_per_iteration", "must be >= 1");
  }
  if (!(sim.jitter_cv >= 0.0) || !std::isfinite(sim.jitter_cv)) {
    fail_at("scenario", "sim.jitter_cv", "must be finite and >= 0");
  }
  if (sim.replicas < 1) {
    fail_at("scenario", "sim.replicas", "must be >= 1");
  }
  if (jobs < 0 || jobs > 512) {
    fail_at("scenario", "jobs", "must be in [0, 512] (0 = all cores)");
  }
  if (!known_log_level(obs.log_level)) fail_log_level("scenario", obs.log_level);
}

Scenario default_scenario() {
  Scenario s;
  s.platform_preset = "xeon";
  s.machine = hw::machine_by_name(s.platform_preset);
  s.program_name = "SP";
  s.input = workload::InputClass::kA;
  s.program = workload::program_by_name(s.program_name, s.input);
  return s;
}

// --- load -----------------------------------------------------------------

Scenario load_scenario(const std::string& text, const std::string& source) {
  return load_scenario(jn::parse(text, source), source);
}

Scenario load_scenario(const jn::Value& doc, const std::string& source) {
  Reader top(doc, "", source);
  top.schema(kScenarioSchema);

  Scenario s;
  top.str("name", s.name);

  // Platform: preset reference (default xeon) with field overrides.
  s.platform_preset = "xeon";
  if (const auto* v = top.get("platform")) {
    Reader po(*v, "platform", source);
    if (const auto* p = po.get("preset")) {
      const std::string key = read_string(*p, "platform.preset", source);
      try {
        s.machine = hw::machine_by_name(key);
      } catch (const std::invalid_argument& e) {
        rethrow_at(e, source, "platform.preset");
      }
      s.platform_preset = key;
    } else {
      // Fully inline machine: start from an empty spec; validate() will
      // reject anything incomplete.
      s.platform_preset.clear();
      s.machine = hw::MachineSpec{};
      s.machine.model_node_counts.clear();
      s.machine.node.dvfs.frequencies_hz.clear();
    }
    visit(po, s.machine);
    po.reject_unknown();
  } else {
    s.machine = hw::machine_by_name(s.platform_preset);
  }

  // Workload: program reference (default SP at class A) with overrides,
  // or a synthetic signature-space grid.
  s.program_name = "SP";
  s.input = workload::InputClass::kA;
  if (const auto* v = top.get("workload")) {
    Reader wo(*v, "workload", source);
    const jn::Value* prog = wo.get("program");
    const jn::Value* grid = wo.get("grid");
    if (prog != nullptr && grid != nullptr) {
      fail_at(source, "workload.grid",
              "cannot combine 'program' with 'grid' (a grid scenario "
              "generates its programs)");
    }
    if (prog != nullptr) {
      s.program_name = read_string(*prog, "workload.program", source);
    }
    wo.choice("class", kInputClass, s.input);
    if (grid != nullptr) {
      workload::SyntheticGrid& g = s.workload_grid.emplace();
      Reader::read(*grid, "workload.grid", source, g);
      s.program_name.clear();
      // Expand immediately: the point cap and per-point range checks fire
      // at load time with the grid's field path, not at first use. The
      // resolved program is the first grid point; consumers that fan the
      // whole grid go through workload_programs(). Field overrides make
      // no sense against generated programs; reject_unknown below
      // rejects them.
      std::vector<workload::SyntheticSpec> points;
      try {
        points = g.expand();
      } catch (const std::invalid_argument& e) {
        rethrow_at(e, source, "workload.grid");
      }
      s.program = workload::make_synthetic(points.front(), s.input);
    } else {
      try {
        s.program = workload::program_by_name(s.program_name, s.input);
      } catch (const std::invalid_argument& e) {
        rethrow_at(e, source, "workload.program");
      }
      visit(wo, s.program);
    }
    wo.reject_unknown();
  } else {
    s.program = workload::program_by_name(s.program_name, s.input);
  }

  top.obj("sweep", s.sweep);

  if (const auto* v = top.get("config")) {
    // Keys left out default to one full node at f_max.
    hw::ClusterConfig& cc = s.config.emplace();
    cc.nodes = 1;
    cc.cores = s.machine.node.cores;
    cc.f_hz = s.machine.node.dvfs.frequencies_hz.empty()
                  ? q::Hertz{0.0}
                  : s.machine.node.dvfs.f_max();
    Reader::read(*v, "config", source, cc);
  }

  if (const auto* v = top.get("faults")) {
    Reader::read(*v, "faults", source, s.faults.emplace());
  }

  top.obj("sim", s.sim);
  top.obj("obs", s.obs);
  if (!known_log_level(s.obs.log_level)) {
    fail_log_level(source, s.obs.log_level);
  }
  top.integer("jobs", s.jobs);

  top.reject_unknown();
  s.validate();
  return s;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for reading");
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return load_scenario(ss.str(), path);
}

// --- save -----------------------------------------------------------------

std::string save_scenario(const Scenario& s) {
  return jn::dump(scenario_to_json(s));
}

jn::Value scenario_to_json(const Scenario& s) {
  Writer top(/*full=*/false);
  top.schema(kScenarioSchema);
  top.str("name", s.name, "");

  {
    // A preset platform is written as the preset plus the keys that
    // differ from it; an inline one in full.
    std::optional<hw::MachineSpec> preset;
    if (!s.platform_preset.empty()) {
      preset = hw::machine_by_name(s.platform_preset);
    }
    Writer w(/*full=*/!preset);
    if (preset) w.set("preset", jn::Value(s.platform_preset));
    visit(w, s.machine, preset ? *preset : s.machine);
    top.set("platform", w.take());
  }

  {
    Writer w(/*full=*/false);
    if (!s.workload_grid) w.set("program", jn::Value(s.program_name));
    w.choice(required("class"), kInputClass, s.input, s.input);
    if (s.workload_grid) {
      w.set("grid", Writer::write(*s.workload_grid, workload::SyntheticGrid{},
                                  /*full=*/false));
    } else {
      const workload::ProgramSpec base =
          workload::program_by_name(s.program_name, s.input);
      visit(w, s.program, base);
    }
    top.set("workload", w.take());
  }

  top.obj("sweep", s.sweep, SweepSpec{});
  if (s.config) {
    top.set("config", Writer::write(*s.config, *s.config, /*full=*/true));
  }
  if (s.faults) {
    top.set("faults", Writer::write(*s.faults, fault::Plan{}, /*full=*/false));
  }
  top.obj("sim", s.sim, SimSettings{});
  top.obj("obs", s.obs, ObsSettings{});
  top.integer("jobs", s.jobs, 0);

  return top.take();
}

void save_scenario_file(const Scenario& s, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for writing");
  }
  os << save_scenario(s);
  if (!os) {
    throw std::runtime_error("hepex: write to '" + path + "' failed");
  }
}

// --- machine/program JSON for external formats ---------------------------

util::json::Value machine_to_json(const hw::MachineSpec& m) {
  return Writer::write(m, m, /*full=*/true);
}

util::json::Value program_to_json(const workload::ProgramSpec& p) {
  return Writer::write(p, p, /*full=*/true);
}

}  // namespace hepex::cfg
