/// \file main.cpp
/// \brief hepex_perfbench — one run of one benchmark workload.
///
///   hepex_perfbench --workload advise_cold|simulate_1k|service_mix
///                   --seed N --seconds S --trace 0|1
///                   --data DIR --work DIR [--hepexd PATH]
///                   [--jobs N] [--default-seed N] [--rate-rps R]
///                   [--connections N] [--service-cpus N]
///                   [--executors N] [--queue N]
///                   [--expected FILE] [--write-expected FILE --count K]
///
/// Prints progress to stderr and, as the last stdout line, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
/// builds this binary and passes the flags BENCHMARK.json records.

#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"
#include "par/thread_pool.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using perfbench::Args;
  try {
    const auto cli = hepex::util::CliArgs::parse(argc, argv);
    cli.require_known({"workload", "seed", "seconds", "trace", "jobs",
                       "default-seed", "rate-rps", "connections",
                       "service-cpus", "executors", "queue", "hepexd", "data",
                       "work", "expected", "write-expected", "count"});
    Args a;
    a.workload = cli.get_or("workload", "");
    a.seed = std::stoull(cli.get_or("seed", "1"));
    a.seconds = cli.get_double_or("seconds", a.seconds);
    a.trace = cli.get_int_or("trace", 0) != 0;
    a.jobs = cli.get_int_or("jobs", a.jobs);
    a.default_seed = std::stoull(cli.get_or("default-seed", "1"));
    a.rate_rps = cli.get_double_or("rate-rps", a.rate_rps);
    a.connections = cli.get_int_or("connections", a.connections);
    a.service_cpus = cli.get_int_or("service-cpus", a.service_cpus);
    a.executors = cli.get_int_or("executors", a.executors);
    a.queue = cli.get_int_or("queue", a.queue);
    a.hepexd = cli.get_or("hepexd", "");
    a.data_dir = cli.get_or("data", "");
    a.work_dir = cli.get_or("work", ".");
    a.expected_override = cli.get_or("expected", "");
    a.write_expected = cli.get_or("write-expected", "");
    a.write_count = cli.get_int_or("count", 0);
    if (a.seconds <= 0.0 || a.jobs < 1) {
      std::fprintf(stderr, "perfbench: --seconds and --jobs must be > 0\n");
      return 2;
    }
    hepex::par::set_default_jobs(a.jobs);

    perfbench::Result r;
    if (a.workload == "advise_cold") {
      r = perfbench::run_advise_cold(a);
    } else if (a.workload == "simulate_1k") {
      r = perfbench::run_simulate_1k(a);
    } else if (a.workload == "service_mix") {
      r = perfbench::run_service_mix(a);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    if (!a.write_expected.empty()) return 0;
    perfbench::print_result(r, a.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
