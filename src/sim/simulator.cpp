#include "sim/simulator.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace hepex::sim {

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!calendar_.empty() && processed < max_events) {
    const auto fired = calendar_.pop();
    now_ = fired.time;
    // The action runs in its pool slot (stable address), so it may
    // schedule new events while alive.
    calendar_.run_slot(fired.slot);
    calendar_.release_slot(fired.slot);
    ++processed;
    ++processed_;
  }
  return processed;
}

std::size_t Simulator::run_until(SimTime t_end) {
  HEPEX_REQUIRE(q::isfinite(t_end), "t_end must be finite");
  std::size_t processed = 0;
  // The condition re-reads the calendar head after every action, so an
  // event scheduled at exactly t_end from within a fired action still
  // runs in this call (see the header's boundary guarantee).
  while (!calendar_.empty() && calendar_.top_time() <= t_end) {
    const auto fired = calendar_.pop();
    now_ = fired.time;
    calendar_.run_slot(fired.slot);
    calendar_.release_slot(fired.slot);
    ++processed;
    ++processed_;
  }
  if (now_ < t_end) now_ = t_end;
  return processed;
}

}  // namespace hepex::sim
