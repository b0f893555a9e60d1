#include "sim/calendar.hpp"

#include <algorithm>
#include <cstddef>

#include "util/error.hpp"

namespace hepex::sim {

// ---------------------------------------------------------------------------
// ActionPool

void ActionPool::add_chunk() {
  auto& chunk = chunks_.emplace_back();
  // Chain the fresh slots onto the free list in descending order so they
  // are handed out in ascending address order (cache-friendly first pass).
  for (std::size_t i = kSlotsPerChunk; i-- > 0;) free_.push_back(&chunk[i]);
}

// ---------------------------------------------------------------------------
// EventCalendar

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
  return Fired{top.time, top.action};
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
