// Library performance baseline: measure the hot paths with std::chrono
// and emit a machine-readable BENCH_perf.json (schema
// "hepex-bench-perf/1"): model-sweep wall time at several job counts,
// serial-vs-parallel speedup, frontier extraction time, simulator event
// throughput. Exits 1 if a parallel sweep is not bit-identical to the
// serial one — CI runs this as the perf smoke test.
//
// Flags: --jobs N (parallel job count to measure against serial; default
// 4), --json PATH (where to write the JSON; default BENCH_perf.json),
// --report PATH, --profile. Not a paper artefact — this guards the
// library's own performance.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/run.hpp"
#include "par/thread_pool.hpp"
#include "trace/run_report.hpp"
#include "util/schemas.hpp"
#include "util/cli.hpp"

using namespace hepex;

namespace {

const model::Characterization& cached_ch() {
  static const model::Characterization ch =
      bench::characterize_program(bench::machine("xeon"), "SP");
  return ch;
}

/// Best-of-`reps` wall time of `fn()`, in seconds. Best-of (not mean)
/// rejects one-off scheduler noise, which matters on shared CI runners.
template <typename F>
double best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Two ConfigPoint vectors are identical down to the last bit.
/// ConfigPoint is padding-free (2 ints + 4 doubles), so memcmp over the
/// raw storage is exact.
bool bit_identical(const std::vector<pareto::ConfigPoint>& a,
                   const std::vector<pareto::ConfigPoint>& b) {
  static_assert(sizeof(pareto::ConfigPoint) ==
                    2 * sizeof(int) + 4 * sizeof(double),
                "ConfigPoint gained padding; memcmp comparison is unsound");
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(pareto::ConfigPoint)) == 0;
}

int run_json_mode(int argc, char** argv, const std::string& report_path) {
  std::string json_path = "BENCH_perf.json";
  int jobs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = util::parse_jobs(argv[++i]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = util::parse_jobs(argv[i] + 7);
    }
  }
  if (jobs == 0) jobs = par::hardware_jobs();

  const auto& ch = cached_ch();
  const auto target =
      model::target_of(workload::make_sp(workload::InputClass::kA));
  const auto space = hw::model_config_space(ch.machine);

  std::printf("hepex perf baseline: %zu-config Xeon model space, "
              "comparing --jobs 1 vs --jobs %d\n",
              space.size(), jobs);

  // Warm up (faults in the instruction cache, pool worker spawn) and
  // keep the serial reference for the identity check.
  const auto reference = pareto::sweep_model(ch, target, space, 1);
  std::vector<pareto::ConfigPoint> parallel_result;

  const int kReps = 20;
  const double sweep_serial_s =
      best_of(kReps, [&] { (void)pareto::sweep_model(ch, target, space, 1); });
  const double sweep_parallel_s = best_of(kReps, [&] {
    parallel_result = pareto::sweep_model(ch, target, space, jobs);
  });
  const double speedup =
      sweep_parallel_s > 0.0 ? sweep_serial_s / sweep_parallel_s : 0.0;

  const bool identical = bit_identical(reference, parallel_result);

  const double frontier_s =
      best_of(kReps, [&] { (void)pareto::pareto_frontier(reference); });

  // Simulator event throughput: one seeded small run, events from the
  // registry's ground-truth counter.
  obs::Registry registry;
  const auto machine = bench::machine("xeon");
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  trace::SimOptions sim_opt;
  sim_opt.metrics = &registry;
  const hw::ClusterConfig sim_cfg{4, 4, q::Hertz{1.8e9}};
  const double sim_s = best_of(
      5, [&] { (void)trace::simulate(machine, program, sim_cfg, sim_opt); });
  // Counters accumulate over every best_of repetition; divide out the
  // repetitions for per-run figures.
  const auto per_run = [&](const char* name) {
    const auto* c = registry.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) / 5.0 : 0.0;
  };
  const double events = per_run("sim.events_processed");
  const double events_per_s = sim_s > 0.0 ? events / sim_s : 0.0;

  // Allocation accounting (exported by the engine, see
  // execution_engine.cpp): action-pool chunks are the only event-path
  // allocations that reach operator new, so new-calls/event is the
  // testable form of the zero-alloc steady-state claim.
  const double pool_chunks = per_run("sim.calendar.slot_chunks");
  const double action_high_water = per_run("sim.calendar.slot_high_water");
  const double peak_pending = per_run("sim.calendar.peak_pending");
  const double new_calls_per_event = events > 0.0 ? pool_chunks / events : 0.0;

  bench::JsonWriter json;
  json.add("schema", hepex::util::schemas::kBenchPerf);
  json.add("machine", ch.machine.name);
  json.add("program", "SP");
  json.add("configs", static_cast<int>(space.size()));
  json.add("jobs", jobs);
  json.add("hardware_jobs", par::hardware_jobs());
  json.add("sweep_serial_s", sweep_serial_s);
  json.add("sweep_parallel_s", sweep_parallel_s);
  json.add("sweep_speedup", speedup);
  json.add("sweep_bit_identical", identical ? 1 : 0);
  json.add("frontier_s", frontier_s);
  json.add("sim_events", events);
  json.add("sim_wall_s", sim_s);
  json.add("sim_events_per_s", events_per_s);
  json.add("sim_action_pool_chunks", pool_chunks);
  json.add("sim_action_high_water", action_high_water);
  json.add("sim_peak_pending", peak_pending);
  json.add("sim_new_calls_per_event", new_calls_per_event);

  const std::string content = json.str();
  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  os << content;
  os.close();
  bench::maybe_write_artifact("BENCH_perf.json", content);

  std::printf("  sweep    : %.3f ms serial, %.3f ms at --jobs %d "
              "(%.2fx, %s)\n",
              sweep_serial_s * 1e3, sweep_parallel_s * 1e3, jobs, speedup,
              identical ? "bit-identical" : "MISMATCH");
  std::printf("  frontier : %.3f ms\n", frontier_s * 1e3);
  std::printf("  simulator: %.3g events in %.3f ms (%.3g events/s)\n",
              events, sim_s * 1e3, events_per_s);
  std::printf("  allocs   : %.3g operator-new calls/event "
              "(pool %.0f chunks, high water %.0f actions, "
              "peak pending %.0f)\n",
              new_calls_per_event, pool_chunks, action_high_water,
              peak_pending);
  std::printf("  json     : %s\n", json_path.c_str());

  // `--report PATH`: also emit the schema-versioned RunReport artifact
  // for the throughput run, so `hepex report diff/check` can consume the
  // bench output directly (same document the CLI's --report produces).
  if (!report_path.empty()) {
    cfg::Scenario rs = bench::scenario("xeon", "SP", workload::InputClass::kS);
    rs.name = "perf-micro";
    rs.config = sim_cfg;
    rs.obs.report_path = report_path;
    core::RunResult res = core::run(rs, core::Method::kSimulate);
    res.report.command = "bench";
    trace::stamp_host(res.report, res.wall.value(), res.metrics.get());
    res.report.save_file(report_path);
    std::printf("  report   : %s\n", report_path.c_str());
  }

  if (!identical) {
    std::fprintf(stderr,
                 "error: parallel sweep diverged from the serial sweep — "
                 "determinism contract broken\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ProfileSession profile(argc, argv);
  return run_json_mode(argc, argv, profile.report_path());
}
