#pragma once
/// \file calendar.hpp
/// \brief Event calendar: one flat 4-ary min-heap of `(time, seq)` keys.
///
/// The calendar keeps every pending event in one global heap and makes
/// each sift cheap:
///
///  * **Actions are parked, not moved.** Every scheduled `EventFn` lives
///    in an `ActionPool` slot with a stable address until it fires; the
///    heap orders 24-byte POD keys `(time, seq, action)`.
///  * **The heap is 4-ary.** Half the levels of a binary heap, and the
///    four children of a node sit in 96 contiguous bytes, so a pop at
///    1000 nodes (~2,000 pending) touches ~6 levels of adjacent keys.
///
/// Determinism is by construction: every event carries the simulator's
/// sequence number, which is unique, so `(time, seq)` is a total order
/// and pop order cannot depend on heap layout (pinned by
/// tests/sim/test_calendar.cpp against a reference queue and by the
/// tests/trace golden calendar-equivalence suite).

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/error.hpp"
#include "util/quantity.hpp"

namespace hepex::sim {

/// Allocation/occupancy counters of a calendar.
struct CalendarStats {
  std::uint64_t slot_acquires = 0;   ///< actions parked over the lifetime
  std::uint64_t slot_chunks = 0;     ///< action-pool chunks allocated
  std::uint64_t slot_high_water = 0; ///< max simultaneously parked actions
  std::uint64_t peak_pending = 0;    ///< max simultaneously pending events
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
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Park `action` and enter `(time, seq)` into the heap. Templated (see
  /// ActionPool::acquire): the action is constructed in its pool slot,
  /// not moved through the call chain.
  template <typename F>
  void push(q::Seconds time, std::uint64_t seq, F&& action) {
    link(Key{time, seq, pool_.acquire(std::forward<F>(action))});
  }

  /// Timestamp of the earliest event (calendar must be non-empty).
  q::Seconds top_time() const {
    HEPEX_ASSERT(!empty(), "top_time of empty calendar");
    return heap_.front().time;
  }

  /// A popped event: the action stays parked in its slot until the
  /// caller releases it (so it can run in place, and so it survives its
  /// own execution even when firing grows the pool or the heap).
  struct Fired {
    q::Seconds time;
    EventFn* action;
  };

  /// Remove the earliest event from the heap. The action remains
  /// parked; invoke it, then `release` it.
  Fired pop();

  /// Destroy a fired action and recycle its slot.
  void release(EventFn* action) { pool_.release(action); }

  /// Lifetime counters (peak occupancy, pool chunks).
  CalendarStats stats() const;

 private:
  /// Heap key: 24 bytes, ordered by (time, seq).
  struct Key {
    q::Seconds time;
    std::uint64_t seq;
    EventFn* action;
  };
  static_assert(sizeof(Key) == 24, "a heap key is three words");
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static constexpr std::size_t kArity = 4;

  /// Enter an already-parked action's key (the non-template tail of
  /// push()).
  void link(const Key& k);

  std::vector<Key> heap_;  ///< 4-ary min-heap
  ActionPool pool_;
  std::uint64_t peak_pending_ = 0;
};

}  // namespace hepex::sim
