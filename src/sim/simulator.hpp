#pragma once
/// \file simulator.hpp
/// \brief Minimal discrete-event simulation kernel.
///
/// The cluster substitute (see DESIGN.md) is built on this engine: hardware
/// components schedule events on a shared virtual clock. Events with equal
/// timestamps fire in FIFO scheduling order, which keeps runs deterministic.
///
/// The calendar orders `(time, scheduling order)` keys (see
/// calendar.hpp), so the pop order is that total order by construction.
/// An event is either an owned `Event` scheduled by reference (the
/// engine's hot path) or a closure parked in the calendar's action pool
/// (see event_fn.hpp).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/calendar.hpp"
#include "sim/event_fn.hpp"
#include "util/error.hpp"
#include "util/quantity.hpp"

namespace hepex::sim {

/// Virtual time. A strong `q::Seconds`: delays and timestamps cannot be
/// confused with frequencies, byte counts or plain scalars at compile time.
using SimTime = q::Seconds;

/// Discrete-event simulator: a virtual clock plus an event calendar.
class Simulator {
 public:
  /// Event actions are stored inline (see event_fn.hpp): scheduling one
  /// never heap-allocates its capture.
  using Action = EventFn;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after now (delay >= 0).
  ///
  /// The schedule entry points are templates so the caller's lambda
  /// constructs the `Action` directly in its calendar slot: the hot path
  /// never moves a capture buffer through the call chain.
  template <typename F, std::enable_if_t<
                            !std::is_base_of_v<Event, std::decay_t<F>>,
                            int> = 0>
  void schedule(SimTime delay, F&& fn) {
    HEPEX_REQUIRE(q::isfinite(delay), "event delay must be finite");
    HEPEX_REQUIRE(delay >= SimTime{}, "cannot schedule events in the past");
    check_action(fn);
    calendar_.push(now_ + delay, seq_++, std::forward<F>(fn));
  }

  /// Schedule the owned event `ev` to fire `delay` after now (delay >=
  /// 0). `ev` must outlive its pending keys. If a key of `ev` is still
  /// pending it is superseded: it pops at its time, advancing the clock
  /// and counting as processed, but does not fire.
  void schedule(SimTime delay, Event& ev) {
    HEPEX_REQUIRE(q::isfinite(delay), "event delay must be finite");
    HEPEX_REQUIRE(delay >= SimTime{}, "cannot schedule events in the past");
    calendar_.push(now_ + delay, seq_++, ev);
  }

  /// Schedule `fn` at absolute virtual time `t` (t >= now()).
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    HEPEX_REQUIRE(q::isfinite(t), "event time must be finite");
    HEPEX_REQUIRE(t >= now_,
                  "cannot schedule events before the current time");
    check_action(fn);
    calendar_.push(t, seq_++, std::forward<F>(fn));
  }

  /// Process events until the calendar drains or `max_events` is hit.
  /// Returns the number of events processed.
  std::size_t run(
      std::size_t max_events = std::numeric_limits<std::size_t>::max());

  /// Process events with timestamp <= t_end; the clock stops at t_end if
  /// the calendar still has later events. Returns events processed.
  ///
  /// Boundary guarantee: an event scheduled *at exactly* `t_end` runs in
  /// this call even when it was scheduled by another event fired during
  /// this call — the loop re-examines the calendar after every action, so
  /// late arrivals at the boundary are not deferred to the next call
  /// (pinned by Simulator.RunUntilRunsBoundaryEventsScheduledMidCall).
  std::size_t run_until(SimTime t_end);

  /// True when no events remain.
  bool empty() const { return calendar_.empty(); }

  /// Number of events scheduled over the simulator's lifetime.
  std::uint64_t total_scheduled() const { return seq_; }

  /// Number of events processed over the simulator's lifetime (across
  /// all run()/run_until() calls). Feeds the obs::Registry's
  /// `sim.events_processed` counter.
  std::uint64_t total_processed() const { return processed_; }

  /// Calendar occupancy/allocation counters (pushes, action-pool chunks,
  /// peak pending depth, superseded keys).
  CalendarStats calendar_stats() const { return calendar_.stats(); }

 private:
  /// A ready-made Action may be empty; anything else callable is not.
  void check_action(const Action& fn) const {
    HEPEX_REQUIRE(static_cast<bool>(fn), "event action must be callable");
  }
  template <typename F>
  void check_action(const F&) const {}

  /// Pop the earliest event, advance the clock to it and fire it (a
  /// superseded key only advances the clock).
  void fire_next();

  SimTime now_{0.0};
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  EventCalendar calendar_;
};

}  // namespace hepex::sim
