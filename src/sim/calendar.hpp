#pragma once
/// \file calendar.hpp
/// \brief Event calendar: a sorted tail run in front of a 4-ary min-heap
/// of `(time, seq)` keys.
///
/// The calendar keeps every pending event in one of two stores and makes
/// each of them cheap:
///
///  * **Events are referenced, not moved.** Both stores order 24-byte POD
///    keys `(time, seq, ref)`. The third word names the event: an owned
///    `sim::Event` that lives in its owner (a station, an engine thread;
///    see event_fn.hpp), tagged by its low bit, or else a scheduled
///    closure parked in an `ActionPool` slot with a stable address until
///    it fires. Owned events are the engine's hot path and never touch
///    the pool.
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
///
/// An owned event pushed again while a key of it is pending supersedes
/// that key: the event now carries the newer seq, and the older key pops
/// at its time without firing (`stats().superseded`).

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
  std::uint64_t pushes = 0;          ///< keys linked over the lifetime
  std::uint64_t slot_acquires = 0;   ///< closures parked over the lifetime
  std::uint64_t slot_chunks = 0;     ///< action-pool chunks allocated
  std::uint64_t slot_high_water = 0; ///< max simultaneously parked closures
  std::uint64_t peak_pending = 0;    ///< max simultaneously pending events
  std::uint64_t heap_pushes = 0;     ///< pushes that missed the tail run
  std::uint64_t superseded = 0;      ///< owned-event keys popped unfired
};

/// Stable-address pool of `EventFn` slots for scheduled closures: a deque
/// of 64-slot chunks of empty actions. Freed slots are recycled through a
/// free list, and a deque never moves its elements when it grows, so a
/// parked action keeps its address until it is released. Dropping the
/// pool destroys every action still parked, including one that threw
/// while firing.
class ActionPool {
 public:
  ActionPool() = default;
  ActionPool(const ActionPool&) = delete;
  ActionPool& operator=(const ActionPool&) = delete;

  /// Park an action; returns its slot. Templated so a caller's lambda
  /// constructs the `EventFn` directly in the slot — the schedule path
  /// never moves an action's capture buffer.
  template <typename F>
  EventFn* acquire(F&& fn) {
    if (free_.empty()) add_chunk();
    EventFn* slot = free_.back();
    slot->emplace(std::forward<F>(fn));
    free_.pop_back();
    ++acquires_;
    if (++parked_ > high_water_) high_water_ = parked_;
    return slot;
  }
  /// Destroy the action in `slot` and recycle the slot.
  void release(EventFn* slot) {
    slot->reset();
    free_.push_back(slot);
    --parked_;
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
  std::uint64_t parked_ = 0;
  std::uint64_t high_water_ = 0;
};

/// The event calendar (see file doc). Not a general priority queue: the
/// caller (sim::Simulator) supplies a strictly increasing `seq` per
/// push, which is what makes the order total and deterministic.
class EventCalendar {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Park `action` and enter `(time, seq)` into the run or the heap.
  /// Templated (see ActionPool::acquire): the action is constructed in
  /// its pool slot, not moved through the call chain.
  template <typename F>
  void push(q::Seconds time, std::uint64_t seq, F&& action) {
    link(Key{time, seq,
             reinterpret_cast<std::uintptr_t>(
                 pool_.acquire(std::forward<F>(action)))});
  }

  /// Enter the owned event `ev` at `(time, seq)`; stamps `ev.seq`, which
  /// supersedes any key of `ev` still pending.
  void push(q::Seconds time, std::uint64_t seq, Event& ev) {
    ev.seq = seq;
    link(Key{time, seq, reinterpret_cast<std::uintptr_t>(&ev) | kOwned});
  }

  /// Timestamp of the earliest event (calendar must be non-empty).
  q::Seconds top_time() const {
    HEPEX_ASSERT(!empty(), "top_time of empty calendar");
    return run_first() ? run_.front().time : heap_.front().time;
  }

  /// A popped event: an owned event to fire, a parked closure, or
  /// neither (a superseded key). A closure stays parked in its slot until
  /// the caller releases it (so it can run in place, and so it survives
  /// its own execution even when firing grows the pool, the run or the
  /// heap).
  struct Fired {
    q::Seconds time;
    std::uintptr_t ref;  ///< tagged reference; 0 when superseded

    /// The owned event to fire, or null.
    Event* owned() const {
      return (ref & kOwned) != 0 ? reinterpret_cast<Event*>(ref - kOwned)
                                 : nullptr;
    }
    /// The parked closure to invoke and then release, or null.
    EventFn* action() const {
      return (ref & kOwned) != 0 ? nullptr : reinterpret_cast<EventFn*>(ref);
    }
  };

  /// Remove the earliest event. A closure remains parked; invoke it,
  /// then `release` it.
  Fired pop();

  /// Destroy a fired closure and recycle its slot.
  void release(EventFn* action) { pool_.release(action); }

  /// Lifetime counters (pushes, peak occupancy, pool chunks).
  CalendarStats stats() const;

 private:
  /// Low bit of a key's `ref`: set for an owned event, clear for a pool
  /// slot (both are at least 8-byte aligned).
  static constexpr std::uintptr_t kOwned = 1;
  static_assert(alignof(Event) > kOwned && alignof(EventFn) > kOwned,
                "event references need a free low bit");

  /// Calendar key: 24 bytes, ordered by (time, seq).
  struct Key {
    q::Seconds time;
    std::uint64_t seq;
    std::uintptr_t ref;
  };
  static_assert(sizeof(Key) == 24, "a calendar key is three words");
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static constexpr std::size_t kArity = 4;

  /// Enter a key into the run or the heap (the non-template tail of
  /// push()).
  void link(const Key& k);
  /// Remove and return the heap's top key.
  Key pop_heap();
  /// True when the earliest key is the run's front.
  bool run_first() const {
    return !run_.empty() &&
           (heap_.empty() || earlier(run_.front(), heap_.front()));
  }

  Ring<Key> run_;          ///< the tail run: ascending keys
  std::vector<Key> heap_;  ///< 4-ary min-heap of keys behind the run's tail
  ActionPool pool_;
  std::size_t size_ = 0;   ///< keys in the run and the heap
  std::uint64_t pushes_ = 0;
  std::uint64_t peak_pending_ = 0;
  std::uint64_t heap_pushes_ = 0;
  std::uint64_t superseded_ = 0;
};

}  // namespace hepex::sim
