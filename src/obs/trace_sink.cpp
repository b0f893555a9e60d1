#include "obs/trace_sink.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "util/json.hpp"

namespace hepex::obs {
namespace {

constexpr double kUsPerSecond = 1e6;

}  // namespace

// Numbers go out as the JSON writer's round-trip text. Anything lossy
// (e.g. %.9g) truncates hour-scale microsecond timestamps to ~0.1 us and
// makes abutting spans appear to overlap in viewers.
using util::json::number_to_string;
using util::json::quote;

void TraceSink::set_process_name(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void TraceSink::set_thread_name(int pid, int tid, std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

void TraceSink::complete(int pid, int tid, std::string_view name,
                         std::string_view category, double start_s,
                         double dur_s) {
  events_.push_back(Event{'X', pid, tid, start_s * kUsPerSecond,
                          std::max(0.0, dur_s) * kUsPerSecond, 0.0,
                          std::string(name), std::string(category)});
}

void TraceSink::instant(int pid, int tid, std::string_view name,
                        std::string_view category, double ts_s) {
  events_.push_back(Event{'i', pid, tid, ts_s * kUsPerSecond, 0.0, 0.0,
                          std::string(name), std::string(category)});
}

void TraceSink::counter(int pid, std::string_view name, double ts_s,
                        double value) {
  events_.push_back(Event{'C', pid, 0, ts_s * kUsPerSecond, 0.0, value,
                          std::string(name), ""});
}

void TraceSink::write_json(std::ostream& os) const {
  // Viewers tolerate unsorted input but render sorted input faster; a
  // stable sort keeps emission order among equal timestamps, which the
  // well-formedness test relies on.
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* a, const Event* b) {
                     return a->ts_us < b->ts_us;
                   });

  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&first, &os] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
       << ", \"tid\": 0, \"args\": {\"name\": " << quote(name) << "}}";
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << key.first
       << ", \"tid\": " << key.second
       << ", \"args\": {\"name\": " << quote(name) << "}}";
  }
  for (const Event* e : order) {
    sep();
    os << "{\"ph\": \"" << e->phase << "\", \"pid\": " << e->pid
       << ", \"tid\": " << e->tid
       << ", \"ts\": " << number_to_string(e->ts_us)
       << ", \"name\": " << quote(e->name);
    if (!e->category.empty()) {
      os << ", \"cat\": " << quote(e->category);
    }
    if (e->phase == 'X') {
      os << ", \"dur\": " << number_to_string(e->dur_us);
    } else if (e->phase == 'i') {
      os << ", \"s\": \"t\"";
    } else if (e->phase == 'C') {
      os << ", \"args\": {\"value\": " << number_to_string(e->value)
         << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool TraceSink::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return os.good();
}

}  // namespace hepex::obs
