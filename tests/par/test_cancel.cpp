// hepex::par cooperative cancellation — the contract hepexd's request
// deadlines lean on: a cancelled or expired token makes a parallel region
// (or a serial check_cancel loop) throw par::Cancelled at the next
// checkpoint, an uncancelled region is byte-for-byte the historical loop,
// and the first real exception wins over everything else in flight.

#include "par/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/thread_pool.hpp"

namespace par = hepex::par;

TEST(CancelToken, LatchesOneWay) {
  par::CancelToken tok;
  EXPECT_FALSE(tok.cancelled());
  tok.cancel();
  EXPECT_TRUE(tok.cancelled());
  tok.cancel();  // idempotent
  EXPECT_TRUE(tok.cancelled());
}

TEST(CancelToken, PastDeadlineCancelsWithoutCancelCall) {
  // Nobody calls cancel(): the deadline alone trips every checkpoint.
  const par::CancelToken tok(par::CancelToken::Clock::now() -
                             std::chrono::milliseconds(1));
  EXPECT_TRUE(tok.cancelled());
  par::CancelScope scope(&tok);
  EXPECT_THROW(par::check_cancel(), par::Cancelled);
  for (int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(
        par::parallel_for(100, [&](std::size_t) { ran.fetch_add(1); }, jobs),
        par::Cancelled);
    EXPECT_EQ(ran.load(), 0) << "jobs=" << jobs;
  }
}

TEST(CancelToken, FarDeadlineLeavesResultsBitIdentical) {
  std::vector<double> with(1000), without(1000);
  const auto fill = [](std::vector<double>& out) {
    par::parallel_for(
        out.size(),
        [&](std::size_t i) {
          par::check_cancel();
          out[i] = 1.0 / static_cast<double>(i + 1);
        },
        4);
  };
  fill(without);
  {
    const par::CancelToken tok(par::CancelToken::Clock::now() +
                               std::chrono::hours(1));
    par::CancelScope scope(&tok);
    fill(with);
    EXPECT_FALSE(tok.cancelled());
  }
  EXPECT_EQ(with, without);
}

TEST(ParallelForCancel, DeadlinePassingMidFlightAbandonsTheTail) {
  // No thread watches the clock: the region's own checkpoints notice the
  // deadline and stop claiming elements.
  const par::CancelToken tok(par::CancelToken::Clock::now() +
                             std::chrono::milliseconds(50));
  par::CancelScope scope(&tok);
  const std::size_t n = 1024;
  std::atomic<int> ran{0};
  EXPECT_THROW(par::parallel_for(
                   n,
                   [&](std::size_t) {
                     ran.fetch_add(1);
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   },
                   4),
               par::Cancelled);
  EXPECT_GT(ran.load(), 0);
  EXPECT_LT(ran.load(), static_cast<int>(n));
}

TEST(CheckCancel, IsANoopOutsideAnyScope) {
  EXPECT_EQ(par::current_cancel_token(), nullptr);
  EXPECT_NO_THROW(par::check_cancel());
}

TEST(CheckCancel, ThrowsOnceScopeTokenIsCancelled) {
  par::CancelToken tok;
  par::CancelScope scope(&tok);
  EXPECT_EQ(par::current_cancel_token(), &tok);
  EXPECT_NO_THROW(par::check_cancel());
  tok.cancel();
  EXPECT_THROW(par::check_cancel(), par::Cancelled);
}

TEST(CancelScope, NestsAndRestores) {
  par::CancelToken outer;
  par::CancelToken inner;
  par::CancelScope a(&outer);
  {
    par::CancelScope b(&inner);
    EXPECT_EQ(par::current_cancel_token(), &inner);
    {
      // nullptr masks the outer scopes entirely.
      par::CancelScope c(nullptr);
      EXPECT_EQ(par::current_cancel_token(), nullptr);
      EXPECT_NO_THROW(par::check_cancel());
    }
    EXPECT_EQ(par::current_cancel_token(), &inner);
  }
  EXPECT_EQ(par::current_cancel_token(), &outer);
}

TEST(ParallelForCancel, PreCancelledRegionRunsNoElements) {
  for (int jobs : {1, 4}) {
    par::CancelToken tok;
    tok.cancel();
    par::CancelScope scope(&tok);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        par::parallel_for(100, [&](std::size_t) { ran.fetch_add(1); }, jobs),
        par::Cancelled);
    EXPECT_EQ(ran.load(), 0) << "jobs=" << jobs;
  }
}

TEST(ParallelForCancel, MidFlightCancelAbandonsTheTail) {
  // Workers chew slow elements; an outside thread flips the token. The
  // region must throw Cancelled and must not have visited every element.
  par::CancelToken tok;
  par::CancelScope scope(&tok);
  const std::size_t n = 256;
  std::atomic<int> ran{0};
  std::thread killer([&] {
    // Wait for the region to be demonstrably in flight, then cancel.
    while (ran.load() == 0) std::this_thread::yield();
    tok.cancel();
  });
  try {
    par::parallel_for(
        n,
        [&](std::size_t) {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        4);
    killer.join();
    FAIL() << "parallel_for completed despite cancellation";
  } catch (const par::Cancelled&) {
    killer.join();
  }
  EXPECT_GT(ran.load(), 0);
  EXPECT_LT(ran.load(), static_cast<int>(n));
}

TEST(ParallelForCancel, WorkersObserveTokenViaCheckCancel) {
  // parallel_for re-installs the caller's token on each worker, so code
  // deep inside an element (the simulator's iteration loop) can call
  // check_cancel() and see it.
  par::CancelToken tok;
  par::CancelScope scope(&tok);
  std::atomic<int> saw_token{0};
  par::parallel_for(
      64,
      [&](std::size_t) {
        if (par::current_cancel_token() == &tok) saw_token.fetch_add(1);
        par::check_cancel();  // must not throw: token never cancelled
      },
      4);
  EXPECT_EQ(saw_token.load(), 64);
}

TEST(ParallelForCancel, UncancelledRunIsUnperturbed) {
  // With a (never-fired) token installed the results are identical to the
  // no-token loop — determinism is not traded for cancellability.
  std::vector<int> with(1000), without(1000);
  par::parallel_for(
      with.size(), [&](std::size_t i) { with[i] = static_cast<int>(i * i); },
      4);
  {
    par::CancelToken tok;
    par::CancelScope scope(&tok);
    par::parallel_for(
        without.size(),
        [&](std::size_t i) { without[i] = static_cast<int>(i * i); }, 4);
  }
  EXPECT_EQ(with, without);
}

TEST(ParallelForCancel, RealExceptionStillPropagatesUnderContention) {
  // A user exception raced against many throwing siblings: exactly one
  // is rethrown after the region drains, and it is one of ours — not a
  // Cancelled, not a terminate.
  for (int rep = 0; rep < 10; ++rep) {
    try {
      par::parallel_for(
          128,
          [&](std::size_t i) {
            if (i % 8 == 0) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
          },
          8);
      FAIL() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).substr(0, 5), "boom ");
    }
  }
}

TEST(ParallelForCancel, CancelledLosesToAnEarlierRealException) {
  // When an element throws a real error and the token also fires, the
  // caller must see *an* exception (never a hang); both types are
  // acceptable, but the region must always drain cleanly.
  for (int rep = 0; rep < 10; ++rep) {
    par::CancelToken tok;
    par::CancelScope scope(&tok);
    bool threw = false;
    try {
      par::parallel_for(
          256,
          [&](std::size_t i) {
            if (i == 3) {
              tok.cancel();
              throw std::runtime_error("real failure");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          },
          8);
    } catch (const par::Cancelled&) {
      threw = true;
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "real failure");
    }
    EXPECT_TRUE(threw);
  }
}
