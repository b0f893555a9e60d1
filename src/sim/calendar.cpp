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
  ++pushes_;
  if (run_.empty() || earlier(run_.back(), k)) {
    run_.push_back() = k;  // later than every key in the run
  } else {
    ++heap_pushes_;
    heap_.push_back(k);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }
  if (++size_ > peak_pending_) peak_pending_ = size_;
}

EventCalendar::Key EventCalendar::pop_heap() {
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
  return top;
}

EventCalendar::Fired EventCalendar::pop() {
  HEPEX_ASSERT(!empty(), "pop from empty calendar");
  --size_;
  Key k{};
  if (run_first()) {
    k = run_.front();
    run_.pop_front();
  } else {
    k = pop_heap();
  }
  // An owned event stamped with a later seq has been pushed again since
  // this key was linked: the key pops, but the event does not fire.
  if ((k.ref & kOwned) != 0 &&
      reinterpret_cast<const Event*>(k.ref - kOwned)->seq != k.seq) {
    ++superseded_;
    return Fired{k.time, 0};
  }
  return Fired{k.time, k.ref};
}

CalendarStats EventCalendar::stats() const {
  CalendarStats s;
  s.pushes = pushes_;
  s.slot_acquires = pool_.acquires();
  s.slot_chunks = pool_.chunks();
  s.slot_high_water = pool_.high_water();
  s.peak_pending = peak_pending_;
  s.heap_pushes = heap_pushes_;
  s.superseded = superseded_;
  return s;
}

}  // namespace hepex::sim
