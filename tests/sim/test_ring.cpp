// Tests for sim::Ring, the grow-only FIFO ring behind a station's waiting
// jobs and the calendar's tail run: FIFO order against std::deque through
// wrap-around and growth while wrapped, move-only elements carried across
// growth, and the popped-slot guarantee sim::Resource relies on.

#include "sim/ring.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <memory>

namespace hepex::sim {
namespace {

TEST(Ring, FifoAcrossWrapAndGrowthWhileWrapped) {
  // Keep `width` elements pending and slide them by an odd number of
  // pop/push steps, so the head walks around the ring and the contents
  // wrap; widening the window then grows the ring with its head mid-way.
  Ring<int> ring;
  std::deque<int> ref;
  int next = 0;
  const auto check = [&] {
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (ref.empty()) return;
    ASSERT_EQ(ring.front(), ref.front());
    ASSERT_EQ(ring.back(), ref.back());
  };
  for (const std::size_t width : {1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 64, 65}) {
    while (ring.size() < width) {
      ring.push_back() = next;
      ref.push_back(next++);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (int step = 0; step < 37; ++step) {
      ring.pop_front();
      ref.pop_front();
      ring.push_back() = next;
      ref.push_back(next++);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(ring.front(), ref.front());
    ring.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, MoveOnlyElementsSurviveGrowth) {
  Ring<std::unique_ptr<int>> ring;
  for (int i = 0; i < 2; ++i) ring.push_back() = std::make_unique<int>(i);
  ring.pop_front();  // the head leaves slot 0
  for (int i = 2; i < 9; ++i) ring.push_back() = std::make_unique<int>(i);
  ASSERT_EQ(ring.size(), 8u);
  for (int i = 1; i < 9; ++i) {
    ASSERT_NE(ring.front(), nullptr);
    EXPECT_EQ(*ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, PoppedFrontStaysValidUntilTheNextPush) {
  Ring<int> ring;
  ring.push_back() = 7;
  ring.push_back() = 8;
  int& front = ring.front();
  ring.pop_front();
  EXPECT_EQ(front, 7);
  EXPECT_EQ(ring.front(), 8);
}

}  // namespace
}  // namespace hepex::sim
