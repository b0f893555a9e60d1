#include "sim/simulator.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace hepex::sim {

void Simulator::fire_next() {
  const auto fired = calendar_.pop();
  now_ = fired.time;
  if (Event* ev = fired.owned()) {
    ev->fire(*ev);
  } else if (EventFn* action = fired.action()) {
    // The closure runs in its pool slot (stable address), so it may
    // schedule new events while alive.
    (*action)();
    calendar_.release(action);
  }
  ++processed_;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!calendar_.empty() && processed < max_events) {
    fire_next();
    ++processed;
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
    fire_next();
    ++processed;
  }
  if (now_ < t_end) now_ = t_end;
  return processed;
}

}  // namespace hepex::sim
