// sim::EventFn — the small-buffer-optimized event action. Pins the
// record sizes (one 64-byte cache line per action slot), that the
// engine's captures fit inline (an oversized one does not compile:
// tests/compile_fail/oversized_event_capture.cpp), move-only ownership,
// and correct destruction in every path.

#include "sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

using hepex::sim::CompletionFn;
using hepex::sim::EventFn;

namespace {

/// Counts ctor/dtor balance so leaks and double-destroys both surface.
struct Tracker {
  static int live;
  static int destroyed;
  static void reset() { live = 0; destroyed = 0; }
  Tracker() { ++live; }
  Tracker(const Tracker&) { ++live; }
  Tracker(Tracker&&) noexcept { ++live; }
  ~Tracker() {
    --live;
    ++destroyed;
  }
};
int Tracker::live = 0;
int Tracker::destroyed = 0;

}  // namespace

TEST(EventFn, SmallCapturesAreStoredInline) {
  // Each construction compiles only because its capture fits inline.
  int a = 0, b = 1;
  EventFn small([&a, &b] { a = b; });
  small();
  EXPECT_EQ(a, 1);

  static double got;  // static, so the lambda captures only the words
  got = 0.0;
  std::array<double, 7> seven_words{};  // the whole 56-byte buffer
  seven_words[6] = 42.0;
  EventFn medium([seven_words] { got = seven_words[6]; });
  medium();
  EXPECT_EQ(got, 42.0);
}

TEST(EventFn, EngineShapedCaptureIsInline) {
  // The engine's largest event capture (a compute chunk: this, thread
  // index, chunk time, epoch) and its largest station continuation (the
  // send loop: this, sender, message index, size, destination, epoch).
  struct FakeRun {
  }* self = nullptr;
  std::size_t tid = 0;
  double chunk_s = 0;
  int epoch = 0;
  static int calls;  // static, so capturing it does not change the shapes
  calls = 0;
  EventFn compute([self, tid, chunk_s, epoch] {
    (void)self;
    (void)tid;
    (void)chunk_s;
    (void)epoch;
    ++calls;
  });
  compute();

  int process = 0, idx = 0, dest = 0;
  double size = 0;
  CompletionFn sent(
      [self, process, idx, size, dest, epoch](hepex::q::Seconds) {
        (void)self;
        (void)process;
        (void)idx;
        (void)size;
        (void)dest;
        (void)epoch;
        ++calls;
      });
  sent(hepex::q::Seconds{});
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, InvokesTheStoredCallable) {
  int calls = 0;
  EventFn fn([&calls] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, DefaultConstructedIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, MoveTransfersOwnership) {
  int calls = 0;
  EventFn a([&calls] { ++calls; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);

  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(c));
  c();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, MoveAssignmentDestroysThePreviousCallable) {
  Tracker::reset();
  {
    EventFn fn([t = Tracker{}] { (void)t; });
    EXPECT_EQ(Tracker::live, 1);
    fn = EventFn([x = 1] { (void)x; });
    EXPECT_EQ(Tracker::live, 0);  // old capture destroyed on assignment
  }
}

TEST(EventFn, DestructorDestroysInlineCapture) {
  Tracker::reset();
  {
    EventFn fn([t = Tracker{}] { (void)t; });
    EXPECT_EQ(Tracker::live, 1);
  }
  EXPECT_EQ(Tracker::live, 0);
}

TEST(EventFn, MovedFromObjectDestructsSafely) {
  Tracker::reset();
  {
    EventFn a([t = Tracker{}] { (void)t; });
    EventFn b(std::move(a));
    // `a` is empty now; both going out of scope must leave the
    // ctor/dtor balance at zero (no leak, no double-destroy).
  }
  EXPECT_EQ(Tracker::live, 0);
}

TEST(EventFn, HoldsMoveOnlyCallables) {
  auto owned = std::make_unique<int>(7);
  int got = 0;
  EventFn fn([p = std::move(owned), &got] { got = *p; });
  fn();
  EXPECT_EQ(got, 7);
}

TEST(EventFn, FootprintStaysBounded) {
  // One action-pool slot is one cache line.
  static_assert(sizeof(EventFn) == 64);
  static_assert(sizeof(CompletionFn) ==
                CompletionFn::kInlineBytes + sizeof(void*));
  SUCCEED();
}

TEST(EventFn, EmplaceReplacesTheStoredCallable) {
  Tracker::reset();
  int calls = 0;
  EventFn fn([t = Tracker{}] { (void)t; });
  EXPECT_EQ(Tracker::live, 1);
  fn.emplace([&calls] { ++calls; });
  EXPECT_EQ(Tracker::live, 0);  // the old capture is destroyed first
  fn();
  EXPECT_EQ(calls, 1);

  EventFn other([&calls] { calls += 10; });
  fn.emplace(std::move(other));  // a SmallFn argument is moved in
  EXPECT_FALSE(static_cast<bool>(other));  // NOLINT(bugprone-use-after-move)
  fn();
  EXPECT_EQ(calls, 11);
}
