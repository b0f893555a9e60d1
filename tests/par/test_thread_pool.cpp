// hepex::par — pool mechanics: coverage, partitioning, jobs resolution,
// exception propagation, nesting. The determinism *contract* (parallel
// sweeps bit-identical to serial) is pinned separately in
// test_parallel_determinism.cpp.

#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace par = hepex::par;

TEST(ResolveJobs, ZeroMeansConfiguredDefault) {
  par::set_default_jobs(0);
  EXPECT_EQ(par::resolve_jobs(0), par::hardware_jobs());
  par::set_default_jobs(3);
  EXPECT_EQ(par::resolve_jobs(0), 3);
  EXPECT_EQ(par::default_jobs(), 3);
  par::set_default_jobs(0);  // restore for other tests
}

TEST(ResolveJobs, ExplicitValuePassesThrough) {
  EXPECT_EQ(par::resolve_jobs(1), 1);
  EXPECT_EQ(par::resolve_jobs(7), 7);
  EXPECT_EQ(par::resolve_jobs(par::kMaxJobs), par::kMaxJobs);
}

TEST(ResolveJobs, RejectsNegativeAndOverMax) {
  EXPECT_THROW(par::resolve_jobs(-1), std::invalid_argument);
  EXPECT_THROW(par::resolve_jobs(par::kMaxJobs + 1), std::invalid_argument);
  EXPECT_THROW(par::set_default_jobs(-2), std::invalid_argument);
  EXPECT_THROW(par::set_default_jobs(par::kMaxJobs + 1),
               std::invalid_argument);
}

TEST(ResolveJobs, HardwareJobsIsPositive) {
  EXPECT_GE(par::hardware_jobs(), 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 4, 0}) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    par::parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, jobs);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at jobs=" << jobs;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool touched = false;
  par::parallel_for(0, [&](std::size_t) { touched = true; }, 4);
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, MoreJobsThanElementsStillCoversAll) {
  const std::size_t n = 3;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      par::parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, PoolSurvivesAnException) {
  try {
    par::parallel_for(
        16, [](std::size_t) { throw std::runtime_error("boom"); }, 4);
  } catch (const std::runtime_error&) {
  }
  // The pool must still dispatch cleanly afterwards.
  std::atomic<int> sum{0};
  par::parallel_for(
      10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); }, 4);
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  // A body that itself calls parallel_for must not deadlock the pool.
  std::vector<std::atomic<int>> hits(64);
  par::parallel_for(
      8,
      [&](std::size_t outer) {
        par::parallel_for(
            8,
            [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); },
            4);
      },
      4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, PreservesOrderAndValues) {
  std::vector<int> in(257);
  std::iota(in.begin(), in.end(), 0);
  for (int jobs : {1, 2, 5}) {
    const auto out =
        par::parallel_map(in, [](const int& x) { return x * x; }, jobs);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(out[i], in[i] * in[i]) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelMap, EmptyInputGivesEmptyOutput) {
  const std::vector<int> in;
  const auto out = par::parallel_map(in, [](const int& x) { return x; }, 4);
  EXPECT_TRUE(out.empty());
}

TEST(ThreadPool, ForRangePartitionsExactly) {
  // Chunk boundaries must tile [0, n) without gaps or overlaps for every
  // (n, chunks) shape, including n % chunks != 0 and more chunks than
  // participants claiming them.
  par::ThreadPool pool;
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (int chunks : {1, 2, 3, 7, 16}) {
      for (int participants : {1, 2, 3, 16}) {
        std::vector<std::atomic<int>> hits(n);
        pool.for_range(n, chunks, participants,
                       [&](std::size_t b, std::size_t e) {
                         ASSERT_LE(b, e);
                         ASSERT_LE(e, n);
                         for (std::size_t i = b; i < e; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "n=" << n << " chunks=" << chunks
              << " participants=" << participants << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPool, SpawnsAtMostParticipantsMinusOneWorkers) {
  par::ThreadPool pool;
  for (int participants : {1, 2, 3}) {
    std::atomic<int> sum{0};
    pool.for_range(64, 16, participants, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sum.fetch_add(1);
    });
    EXPECT_EQ(sum.load(), 64);
    EXPECT_EQ(pool.workers(), participants - 1);
  }
  // A narrower region on the grown pool does not spawn more.
  pool.for_range(64, 16, 2, [](std::size_t, std::size_t) {});
  EXPECT_EQ(pool.workers(), 2);
}

TEST(ThreadPool, SurplusWorkersDoNotJoinANarrowerRegion) {
  // A pool grown by a wider region keeps its workers; a later region with
  // fewer participants must still run on at most that many threads.
  par::ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    std::mutex mu;
    std::set<std::thread::id> seen;
    pool.for_range(32, 32, 2, [&](std::size_t, std::size_t) {
      {
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    EXPECT_LE(seen.size(), 2u) << "rep " << rep;
  }
}

TEST(ThreadPool, GrowsWorkersOnDemand) {
  par::ThreadPool pool;
  EXPECT_EQ(pool.workers(), 0);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.workers(), 3);
  pool.ensure_workers(1);  // never shrinks
  EXPECT_EQ(pool.workers(), 3);
}

TEST(ThreadPool, InWorkerIsFalseOnTheCallerThread) {
  EXPECT_FALSE(par::ThreadPool::in_worker());
}
