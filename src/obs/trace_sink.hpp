#pragma once
/// \file trace_sink.hpp
/// \brief Chrome/Perfetto trace-event JSON exporter.
///
/// `TraceSink` records timeline events — spans, instants, counter samples
/// — and writes them in the Trace Event Format that chrome://tracing and
/// https://ui.perfetto.dev open directly. The simulated cluster maps onto
/// the format naturally: **pid = node**, **tid = lane within the node**
/// (cores, memory controller, messaging stack, barrier), with one extra
/// pseudo-process for cluster-wide lanes (the shared switch, iteration
/// phases).
///
/// Timestamps are *virtual* simulation seconds, emitted as microseconds
/// (the format's native unit), so a 60 s simulated run shows as a 60 s
/// timeline regardless of how fast the host simulated it.
///
/// Recording is passive: the sink never schedules events, never consumes
/// randomness and never observes host time, which is what makes
/// instrumented runs bit-identical to bare ones (the zero-perturbation
/// property tests/trace/test_determinism.cpp locks in).

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hepex::obs {

/// Collects trace events in memory; `write_json`/`write_file` export them.
class TraceSink {
 public:
  /// Name the track headers Perfetto shows. Safe to call any time before
  /// writing; later calls overwrite earlier names.
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  /// Complete span ("X" event): `[start_s, start_s + dur_s]` on lane
  /// (pid, tid). Negative durations are clamped to 0.
  void complete(int pid, int tid, std::string_view name,
                std::string_view category, double start_s, double dur_s);

  /// Zero-duration marker ("i" event, thread scope).
  void instant(int pid, int tid, std::string_view name,
               std::string_view category, double ts_s);

  /// Counter sample ("C" event): one series `name` per pid, rendered by
  /// the viewers as a step chart.
  void counter(int pid, std::string_view name, double ts_s, double value);

  /// Events recorded so far (metadata from set_*_name excluded).
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Write the complete JSON document (`{"traceEvents": [...]}`).
  /// Events are emitted sorted by timestamp, metadata first.
  void write_json(std::ostream& os) const;

  /// `write_json` to `path`; returns false when the file cannot be
  /// opened or written.
  bool write_file(const std::string& path) const;

 private:
  struct Event {
    char phase;        // 'X', 'i' or 'C'
    int pid;
    int tid;
    double ts_us;
    double dur_us;     // 'X' only
    double value;      // 'C' only
    std::string name;
    std::string category;
  };

  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
};

}  // namespace hepex::obs
