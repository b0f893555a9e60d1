// Simulator event-throughput scaling: events/s versus cluster size.
//
// Not a paper artefact — this guards the raw speed of the discrete-event
// engine itself. The paper's clusters stop at 8 nodes; the flat
// (time, seq) event heap (src/sim/calendar.hpp) is what keeps the engine
// usable three orders of magnitude past that, and this bench is where
// that claim is measured: one short SP/S run per node count, timed around
// trace::simulate() (the engine loop only — scenario parsing, report
// writing and other fixed process overhead are excluded on purpose,
// because at small event counts they dominate end-to-end wall time and
// hide the engine's slope).
//
// The node counts mirror the committed scale scenarios
// (examples/scenarios/scale_64.json, scale_1k.json) plus the paper-scale
// 8-node point and an intermediate 256.
//
// Emits BENCH_scaleout_events.json (schema "hepex-bench-perf/1"):
// parallel arrays `nodes`, `events`, `wall_s`, `events_per_s`. CI runs
// this as part of the perf smoke and uploads the JSON artifact; numbers
// from a loaded CI runner are indicative, the committed floor lives in
// BENCH_perf.json.
//
// Flags: --json PATH (default BENCH_scaleout_events.json), --reps N
// (best-of repetitions per node count, default 5), --profile.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/registry.hpp"
#include "trace/execution_engine.hpp"
#include "util/schemas.hpp"
#include "workload/programs.hpp"

using namespace hepex;

namespace {

/// Best-of-`reps` wall seconds of `fn()` (see bench_perf_micro for the
/// rationale: best-of rejects one-off scheduler noise).
template <typename F>
double best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ProfileSession profile(argc, argv);
  std::string json_path = "BENCH_scaleout_events.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    }
  }
  if (reps < 1) reps = 1;

  // The xeon preset with the availability ceiling raised — the same
  // cluster the scale_64/scale_1k scenarios describe. SP at class S
  // keeps a single run short even at 1000 nodes.
  hw::MachineSpec machine = bench::machine("xeon");
  machine.nodes_available = 100000;
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);

  const std::vector<int> node_counts = {8, 64, 256, 1000};
  std::vector<double> events_v, wall_v, rate_v, nodes_v;

  std::printf("simulator event throughput vs cluster size "
              "(SP class S, best of %d)\n", reps);
  std::printf("  %6s  %12s  %10s  %12s\n", "nodes", "events", "wall [ms]",
              "events/s");
  for (const int nodes : node_counts) {
    const hw::ClusterConfig cfg{nodes, 4, q::Hertz{1.8e9}};
    trace::SimOptions opt;  // no observers: measure the bare engine
    obs::Registry registry;
    opt.metrics = &registry;
    const double wall =
        best_of(reps, [&] { (void)trace::simulate(machine, program, cfg, opt); });
    double events = 0.0;
    if (const auto* c = registry.find_counter("sim.events_processed")) {
      events = static_cast<double>(c->value()) / static_cast<double>(reps);
    }
    const double rate = wall > 0.0 ? events / wall : 0.0;
    nodes_v.push_back(static_cast<double>(nodes));
    events_v.push_back(events);
    wall_v.push_back(wall);
    rate_v.push_back(rate);
    std::printf("  %6d  %12.0f  %10.3f  %12.3g\n", nodes, events, wall * 1e3,
                rate);
  }

  bench::JsonWriter json;
  json.add("schema", hepex::util::schemas::kBenchPerf);
  json.add("machine", machine.name);
  json.add("program", "SP");
  json.add("reps", reps);
  json.add("nodes", nodes_v);
  json.add("events", events_v);
  json.add("wall_s", wall_v);
  json.add("events_per_s", rate_v);

  const std::string content = json.str();
  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  os << content;
  os.close();
  bench::maybe_write_artifact("BENCH_scaleout_events.json", content);
  std::printf("  json: %s\n", json_path.c_str());
  return 0;
}
