#include "sim/calendar.hpp"

#include <algorithm>
#include <cstddef>

#include "sim/arena.hpp"
#include "util/error.hpp"

namespace hepex::sim {

// ---------------------------------------------------------------------------
// ActionPool

ActionPool::~ActionPool() {
  // Destroy actions still parked (an exception unwound through run(), or
  // the simulator was dropped with events pending), then hand every
  // chunk back to the arena.
  if (live_count_ != 0) {
    for (std::size_t s = 0; s < live_.size(); ++s) {
      if (live_[s] != 0) slot_ptr(static_cast<std::uint32_t>(s))->~EventFn();
    }
  }
  for (EventFn* chunk : chunks_) {
    arena_free(chunk, kSlotsPerChunk * sizeof(EventFn));
  }
}

void ActionPool::add_chunk() {
  void* raw = arena_alloc(kSlotsPerChunk * sizeof(EventFn));
  auto* chunk = static_cast<EventFn*>(raw);
  const auto base =
      static_cast<std::uint32_t>(chunks_.size()) * kSlotsPerChunk;
  chunks_.push_back(chunk);
  live_.resize(live_.size() + kSlotsPerChunk, 0);
  // Chain the fresh slots onto the free list in descending order so they
  // are handed out in ascending slot order (cache-friendly first pass).
  free_.reserve(free_.size() + kSlotsPerChunk);
  for (std::uint32_t i = kSlotsPerChunk; i-- > 0;) {
    free_.push_back(base + i);
  }
}

void ActionPool::release(std::uint32_t slot) {
  slot_ptr(slot)->~EventFn();
  live_[slot] = 0;
  --live_count_;
  free_.push_back(slot);
}

void ActionPool::reserve(std::size_t slots) {
  while (chunks_.size() * kSlotsPerChunk < slots) add_chunk();
}

// ---------------------------------------------------------------------------
// EventCalendar

void EventCalendar::reserve(std::size_t pending) {
  heap_.reserve(pending);
  pool_.reserve(pending);
}

void EventCalendar::link(const Key& k) {
  heap_.push_back(k);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
}

EventCalendar::Fired EventCalendar::pop() {
  HEPEX_ASSERT(!empty(), "pop from empty calendar");
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n != 0) {
    // Sift the former last key down from the root.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return Fired{top.time, top.slot};
}

CalendarStats EventCalendar::stats() const {
  CalendarStats s;
  s.slot_acquires = pool_.acquires();
  s.slot_chunks = pool_.chunks();
  s.slot_high_water = pool_.high_water();
  s.peak_pending = peak_pending_;
  return s;
}

}  // namespace hepex::sim
