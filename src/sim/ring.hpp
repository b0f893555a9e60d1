#pragma once
/// \file ring.hpp
/// \brief Grow-only power-of-two FIFO ring, the one queue buffer of
/// `src/sim`.
///
/// Two hot structures hold a FIFO whose length rises and falls around a
/// steady level: a `sim::Resource` station's waiting jobs and the event
/// calendar's tail run. Both want the same thing from it: append and pop
/// without allocating once the ring has reached its working size, and
/// indexing that is a mask rather than a division. The ring starts at 2
/// slots, doubles (unwrapping its contents to slot 0) when a push finds
/// it full, and never shrinks. The mask is stored, not derived from the
/// vector's size (a division by the element size). Popped slots are not
/// destroyed: a slot keeps its moved-from or stale value until a later
/// push reuses it, so `push_back` hands the caller a slot to fill in
/// place.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hepex::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Oldest element (ring must be non-empty).
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// Newest element (ring must be non-empty).
  const T& back() const { return slots_[(head_ + count_ - 1) & mask_]; }

  /// Append a slot at the back, growing the ring if it is full, and
  /// return it for the caller to fill. The slot holds whatever a past
  /// pop left there (or a default-constructed `T`).
  T& push_back() {
    if (count_ == slots_.size()) grow();
    return slots_[(head_ + count_++) & mask_];
  }

  /// Drop the front element. Its slot is left as it is; a reference to
  /// it stays valid until the next push_back.
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

 private:
  void grow() {
    HEPEX_ASSERT(slots_.size() < (std::size_t{1} << 31), "ring overflow");
    std::vector<T> bigger(slots_.empty() ? 2 : slots_.size() * 2);
    for (std::uint32_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(bigger);
    mask_ = static_cast<std::uint32_t>(slots_.size() - 1);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t mask_ = 0;  ///< slots_.size() - 1 once slots exist
};

}  // namespace hepex::sim
