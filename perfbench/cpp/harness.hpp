#pragma once
/// \file harness.hpp
/// \brief Shared plumbing of the HEPEX benchmark: arguments, clocks,
///        percentiles, in-memory spans and the one-line JSON result.
///
/// Every workload fills a `Result`; `print_result` emits the whole metric
/// set of the run's mode (end-to-end with `--trace 0`, per-layer with
/// `--trace 1`) in a fixed order, so each run prints the same keys.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pareto/frontier.hpp"
#include "util/json.hpp"

namespace perfbench {

/// Command-line options (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 4;                     ///< pinned par pool width
  std::uint64_t default_seed = 1;   ///< the seed the committed data pins
  double rate_rps = 500.0;          ///< service_mix open-loop rate (traced)
  int connections = 4;              ///< service_mix callers (<= nproc)
  int service_cpus = 1;             ///< CPUs service_mix is confined to
  int executors = 4;                ///< hepexd --executors
  int queue = 64;                   ///< hepexd --queue
  std::string hepexd;               ///< path of the hepexd binary
  std::string data_dir;             ///< committed digests and values
  std::string work_dir;             ///< scratch: sockets, span dumps
  std::string expected_override;    ///< replaces the committed data file
  std::string write_expected;       ///< regenerate the committed data file
  int write_count = 0;              ///< ops to pin when regenerating
};

// --- time -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

// --- statistics -----------------------------------------------------------

/// Percentile `q` in [0, 1] by linear interpolation between order
/// statistics (0 for an empty sample).
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// One op's share of a rate: when it started (s from the run's start),
/// the work it did and the seconds it took.
struct RateSample {
  double start_s = 0.0;
  double work = 0.0;
  double seconds = 0.0;
};

/// Throughput that a burst of host contention cannot swing: the samples
/// are grouped into `window_s`-wide windows by start time, each window's
/// rate is its summed work over its summed seconds, and the median window
/// rate is returned (0 when no window has time).
double median_window_rate(const std::vector<RateSample>& samples,
                          double window_s);
inline constexpr double kRateWindowS = 3.0;

/// Tracing overhead in percent: traced vs untraced median op time.
inline double overhead_pct(const std::vector<double>& traced,
                           const std::vector<double>& plain) {
  return 100.0 * (median(traced) / median(plain) - 1.0);
}

/// SplitMix64 finalizer: derives independent streams from the seed.
std::uint64_t mix64(std::uint64_t x);

// --- spans ----------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around the
/// public function it calls.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;      ///< index into the recorder, -1 for an op root
  std::int64_t op = 0;  ///< op id shared by every span of one op
};

/// Spans kept in memory for the whole run and written out at the end.
/// Not thread-safe: each recording thread owns its recorder.
class SpanRecorder {
 public:
  /// RAII span: records [construction, destruction) under the innermost
  /// open span. A null recorder makes it a no-op.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  void begin_op(std::int64_t op) { op_ = op; }

  /// Per-op self time in ms (span duration minus the part its children
  /// cover), summed per span name: result[name][k] is the k-th op's value.
  /// Ops that never entered a layer contribute nothing to its series.
  std::map<std::string, std::vector<double>> self_ms_by_op() const;
  /// Durations (ms) of the spans named `name`, one per occurrence.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Median duration (ms) of the spans named `name` (0 when none).
  double median_ms(const std::string& name) const {
    return median(durations_ms(name));
  }
  /// How much of the median `root` span the layers below it explain:
  /// 100 x (sum over the other span names of their median per-op self
  /// time) / (median `root` duration).
  double coverage_pct(const std::string& root) const;

  /// Write every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t op_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

// --- result ---------------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< name -> value (unit fixed)
  /// Count one op; a failed check also marks the run incorrect and logs
  /// `why` to stderr (first few only).
  void record(bool ok, const std::string& why = {});
};

/// Emit the result as the last stdout line. Every metric of the mode is
/// printed; one a workload does not fill is reported as 0, meaning the
/// workload does not cross that layer (per-layer mode only; an end-to-end
/// metric left unfilled is a harness bug and fails the run).
void print_result(const Result& r, bool trace);

/// Peak resident set (VmHWM) of process `pid` ("self" for this one),
/// MiB; 0 when unreadable. Unlike getrusage's maxrss it restarts at exec,
/// so the launcher's footprint is not counted.
double peak_rss_mb(const std::string& pid = "self");

/// Write `(t_s, value)` samples as CSV lines `t_s,value`; false on error.
bool write_samples_csv(const std::string& path,
                       const std::vector<std::pair<double, double>>& samples);

/// Load a committed data file: one token per line after an optional
/// `#` comment header. Throws std::runtime_error when unreadable.
std::vector<std::string> read_data_lines(const std::string& path);
void write_data_lines(const std::string& path, const std::string& header,
                      const std::vector<std::string>& lines);

/// The advise `summary` block `hepex advise --report` and hepexd both
/// build from a frontier: the point count and every point's (n, c, f,
/// time, energy, UCR).
hepex::util::json::Value frontier_summary(
    const std::vector<hepex::pareto::ConfigPoint>& frontier);

// --- workloads --------------------------------------------------------------

Result run_advise_cold(const Args& args);
Result run_simulate_1k(const Args& args);
Result run_service_mix(const Args& args);

}  // namespace perfbench
