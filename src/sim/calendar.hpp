#pragma once
/// \file calendar.hpp
/// \brief Event calendar: one flat 4-ary min-heap of `(time, seq)` keys.
///
/// The single global `std::priority_queue<Event>` the simulator started
/// with moved whole 112-byte events (a 96-byte action buffer plus key)
/// through every heap sift. This calendar keeps one global heap but
/// makes each sift cheap:
///
///  * **Actions are parked, not moved.** Every scheduled `EventFn` lives
///    in an `ActionPool` slot with a stable address until it fires; the
///    heap orders 24-byte POD keys `(time, seq, slot)`.
///  * **The heap is 4-ary.** Half the levels of a binary heap, and the
///    four children of a node sit in 96 contiguous bytes, so a pop at
///    1000 nodes (~2,000 pending) touches ~6 levels of adjacent keys.
///
/// Determinism is by construction: every event carries the simulator's
/// sequence number, which is unique, so `(time, seq)` is a total order
/// and pop order cannot depend on heap layout (pinned by
/// tests/sim/test_calendar.cpp against a reference queue and by the
/// tests/trace golden calendar-equivalence suite).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/error.hpp"
#include "util/quantity.hpp"

namespace hepex::sim {

/// Allocation/occupancy counters of a calendar (see also
/// `sim::arena_stats()` for the action-capture overflow arena).
struct CalendarStats {
  std::uint64_t slot_acquires = 0;   ///< actions parked over the lifetime
  std::uint64_t slot_chunks = 0;     ///< action-pool chunks allocated
  std::uint64_t slot_high_water = 0; ///< max simultaneously parked actions
  std::uint64_t peak_pending = 0;    ///< max simultaneously pending events
};

/// Chunked, stable-address pool of `EventFn` slots. Slots are recycled
/// through a free list; chunks are only ever added, so a parked action
/// never moves and growth allocations amortize to zero in steady state.
class ActionPool {
 public:
  ActionPool() = default;
  ActionPool(const ActionPool&) = delete;
  ActionPool& operator=(const ActionPool&) = delete;
  ~ActionPool();

  /// Park an action; returns its slot index. Templated so a caller's
  /// lambda constructs the `EventFn` directly in the slot — the hot
  /// schedule path never moves an action's capture buffer.
  template <typename F>
  std::uint32_t acquire(F&& fn) {
    if (free_.empty()) add_chunk();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    ::new (static_cast<void*>(slot_ptr(slot))) EventFn(std::forward<F>(fn));
    live_[slot] = 1;
    ++live_count_;
    ++acquires_;
    if (live_count_ > high_water_) high_water_ = live_count_;
    return slot;
  }
  /// The action parked at `slot`.
  EventFn& at(std::uint32_t slot) {
    return *slot_ptr(slot);
  }
  /// Destroy the action at `slot` and recycle the slot.
  void release(std::uint32_t slot);
  /// Pre-allocate chunks for `slots` simultaneous actions.
  void reserve(std::size_t slots);

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t chunks() const { return chunks_.size(); }
  std::uint64_t high_water() const { return high_water_; }

 private:
  // 64 slots * sizeof(EventFn) per chunk; allocated through the arena
  // (sim/arena.hpp), the one sanctioned allocation site in src/sim.
  static constexpr std::uint32_t kSlotsPerChunkLog2 = 6;
  static constexpr std::uint32_t kSlotsPerChunk = 1u << kSlotsPerChunkLog2;

  EventFn* slot_ptr(std::uint32_t slot) {
    return chunks_[slot >> kSlotsPerChunkLog2] +
           (slot & (kSlotsPerChunk - 1));
  }
  void add_chunk();

  std::vector<EventFn*> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<char> live_;  ///< per-slot liveness, for unwind cleanup
  std::uint64_t acquires_ = 0;
  std::uint64_t live_count_ = 0;
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

  /// A popped event: the action stays parked at `slot` until the caller
  /// releases it (so it can run in place, and so it survives its own
  /// execution even when firing reallocates heap storage).
  struct Fired {
    q::Seconds time;
    std::uint32_t slot;
  };

  /// Remove the earliest event from the heap. The action remains
  /// parked; call `run_slot` then `release_slot`.
  Fired pop();

  /// Invoke the action parked at `slot` (may push new events).
  void run_slot(std::uint32_t slot) { pool_.at(slot)(); }
  /// Destroy the action at `slot` and recycle the slot.
  void release_slot(std::uint32_t slot) { pool_.release(slot); }

  /// Pre-size for `pending` simultaneous events: heap storage and
  /// `pending` action-pool slots.
  void reserve(std::size_t pending);

  /// Lifetime counters (peak occupancy, pool chunks).
  CalendarStats stats() const;

 private:
  /// Heap key: 24 bytes, ordered by (time, seq).
  struct Key {
    q::Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
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
