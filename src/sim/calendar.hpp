#pragma once
/// \file calendar.hpp
/// \brief Event calendar: a sorted tail run in front of a 4-ary min-heap
/// of `(time, seq)` keys.
///
/// The calendar keeps every pending event in one of two stores and makes
/// each of them cheap:
///
///  * **Actions are parked, not moved.** Every scheduled `EventFn` lives
///    in an `ActionPool` slot with a stable address until it fires; both
///    stores order 24-byte POD keys `(time, seq, action)`.
///  * **Most keys never enter the heap.** A push later than every key in
///    the *tail run* (or into an empty run) is appended to it: a FIFO of
///    ascending keys in a `sim::Ring` (sim/ring.hpp). The engine's
///    compute and memory completions are scheduled a near-constant step
///    ahead (a "hold" pattern), so at 1000 nodes over half of all pushes
///    land there, and a run pop is one comparison against the heap's top.
///  * **The rest go to a 4-ary heap.** Half the levels of a binary heap,
///    and the four children of a node sit in 96 contiguous bytes; it only
///    holds keys that arrived behind the run's tail, so it stays shallow.
///
/// `pop` takes the earlier of the run's front and the heap's top. Every
/// event carries the simulator's sequence number, which is unique, so
/// `(time, seq)` is a total order and pop order cannot depend on which
/// store a key sits in or on heap layout (pinned by
/// tests/sim/test_calendar.cpp against a reference queue and by the
/// tests/trace golden calendar-equivalence suite).

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/ring.hpp"
#include "util/error.hpp"
#include "util/quantity.hpp"

namespace hepex::sim {

/// Allocation/occupancy counters of a calendar.
struct CalendarStats {
  std::uint64_t slot_acquires = 0;   ///< actions parked over the lifetime
  std::uint64_t slot_chunks = 0;     ///< action-pool chunks allocated
  std::uint64_t slot_high_water = 0; ///< max simultaneously parked actions
  std::uint64_t peak_pending = 0;    ///< max simultaneously pending events
  std::uint64_t heap_pushes = 0;     ///< pushes that missed the tail run
};

/// Stable-address pool of `EventFn` slots: a deque of 64-slot chunks of
/// empty actions. Freed slots are recycled through a free list, and a
/// deque never moves its elements when it grows, so a parked action
/// keeps its address until it is released. Dropping the pool destroys
/// every action still parked, including one that threw while firing.
class ActionPool {
 public:
  ActionPool() = default;
  ActionPool(const ActionPool&) = delete;
  ActionPool& operator=(const ActionPool&) = delete;

  /// Park an action; returns its slot. Templated so a caller's lambda
  /// constructs the `EventFn` directly in the slot — the hot schedule
  /// path never moves an action's capture buffer.
  template <typename F>
  EventFn* acquire(F&& fn) {
    if (free_.empty()) add_chunk();
    EventFn* slot = free_.back();
    slot->emplace(std::forward<F>(fn));
    free_.pop_back();
    ++acquires_;
    const std::uint64_t parked = chunks_.size() * kSlotsPerChunk - free_.size();
    if (parked > high_water_) high_water_ = parked;
    return slot;
  }
  /// Destroy the action in `slot` and recycle the slot.
  void release(EventFn* slot) {
    *slot = EventFn{};
    free_.push_back(slot);
  }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t chunks() const { return chunks_.size(); }
  std::uint64_t high_water() const { return high_water_; }

 private:
  static constexpr std::size_t kSlotsPerChunk = 64;

  void add_chunk();

  std::deque<std::array<EventFn, kSlotsPerChunk>> chunks_;
  std::vector<EventFn*> free_;
  std::uint64_t acquires_ = 0;
  std::uint64_t high_water_ = 0;
};

/// The event calendar (see file doc). Not a general priority queue: the
/// caller (sim::Simulator) supplies a strictly increasing `seq` per
/// push, which is what makes the order total and deterministic.
class EventCalendar {
 public:
  bool empty() const { return size() == 0; }
  std::size_t size() const { return run_.size() + heap_.size(); }

  /// Park `action` and enter `(time, seq)` into the run or the heap.
  /// Templated (see ActionPool::acquire): the action is constructed in
  /// its pool slot, not moved through the call chain.
  template <typename F>
  void push(q::Seconds time, std::uint64_t seq, F&& action) {
    link(Key{time, seq, pool_.acquire(std::forward<F>(action))});
  }

  /// Timestamp of the earliest event (calendar must be non-empty).
  q::Seconds top_time() const {
    HEPEX_ASSERT(!empty(), "top_time of empty calendar");
    return run_first() ? run_.front().time : heap_.front().time;
  }

  /// A popped event: the action stays parked in its slot until the
  /// caller releases it (so it can run in place, and so it survives its
  /// own execution even when firing grows the pool, the run or the heap).
  struct Fired {
    q::Seconds time;
    EventFn* action;
  };

  /// Remove the earliest event. The action remains parked; invoke it,
  /// then `release` it.
  Fired pop();

  /// Destroy a fired action and recycle its slot.
  void release(EventFn* action) { pool_.release(action); }

  /// Lifetime counters (peak occupancy, pool chunks).
  CalendarStats stats() const;

 private:
  /// Calendar key: 24 bytes, ordered by (time, seq).
  struct Key {
    q::Seconds time;
    std::uint64_t seq;
    EventFn* action;
  };
  static_assert(sizeof(Key) == 24, "a calendar key is three words");
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static constexpr std::size_t kArity = 4;

  /// Enter an already-parked action's key (the non-template tail of
  /// push()).
  void link(const Key& k);
  /// True when the earliest key is the run's front.
  bool run_first() const {
    return !run_.empty() &&
           (heap_.empty() || earlier(run_.front(), heap_.front()));
  }

  Ring<Key> run_;          ///< the tail run: ascending keys
  std::vector<Key> heap_;  ///< 4-ary min-heap of keys behind the run's tail
  ActionPool pool_;
  std::uint64_t peak_pending_ = 0;
  std::uint64_t heap_pushes_ = 0;
};

}  // namespace hepex::sim
