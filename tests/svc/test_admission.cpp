// AdmissionGate — hepexd's admission valve. At most `executors` requests
// run; the rest wait in FIFO order. A full wait means shed (never block a
// connection thread behind it); close means drain (waiting requests still
// run, nothing is silently dropped).

#include "svc/admission.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace hepex::svc {
namespace {

using Entry = AdmissionGate::Entry;

/// Spin until `depth` requests wait at the gate (bounded: fails the test
/// instead of hanging).
void await_depth(const AdmissionGate& gate, std::uint64_t depth) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (gate.depth() != depth) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "gate depth stuck at " << gate.depth() << ", want " << depth;
    std::this_thread::yield();
  }
}

/// One thread that enters the gate, records the outcome and leaves.
std::thread waiter(AdmissionGate& gate, std::atomic<int>& ran) {
  return std::thread([&gate, &ran] {
    if (gate.enter() == Entry::kRun) {
      ran.fetch_add(1);
      gate.leave();
    }
  });
}

TEST(AdmissionGate, RequestsStartInFifoOrder) {
  AdmissionGate gate(/*executors=*/1, /*queue_capacity=*/8);
  ASSERT_EQ(gate.enter(), Entry::kRun);  // hold the only slot
  constexpr int kWaiters = 5;
  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      ASSERT_EQ(gate.enter(), Entry::kRun);
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
      gate.leave();
    });
    // Ticket i is taken before ticket i + 1 is asked for.
    await_depth(gate, static_cast<std::uint64_t>(i + 1));
  }
  gate.leave();
  for (auto& t : threads) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(gate.depth(), 0u);
  EXPECT_EQ(gate.admitted(), static_cast<std::uint64_t>(kWaiters + 1));
}

TEST(AdmissionGate, AtMostExecutorsRunAndNothingIsLost) {
  constexpr int kExecutors = 3;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 300;
  constexpr int kTotal = kProducers * kPerProducer;
  // capacity 8: every producer has at most one request outstanding, so
  // nothing may shed. capacity 1: some shed, and every request still ends
  // either run or shed.
  for (const std::size_t capacity : {std::size_t{8}, std::size_t{1}}) {
    AdmissionGate gate(kExecutors, capacity);
    std::atomic<int> running{0}, peak{0}, ran{0}, shed{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          const Entry e = gate.enter();
          ASSERT_NE(e, Entry::kClosed);
          if (e == Entry::kShed) {
            shed.fetch_add(1);
            continue;
          }
          const int now = running.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::yield();
          running.fetch_sub(1);
          ran.fetch_add(1);
          gate.leave();
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_LE(peak.load(), kExecutors) << "capacity " << capacity;
    EXPECT_GE(peak.load(), 1);
    EXPECT_EQ(ran.load() + shed.load(), kTotal) << "capacity " << capacity;
    EXPECT_EQ(gate.admitted(), static_cast<std::uint64_t>(ran.load()));
    EXPECT_EQ(gate.depth(), 0u);
    if (capacity == 8) {
      EXPECT_EQ(shed.load(), 0);
    }
  }
}

TEST(AdmissionGate, ShedsOnlyWhenTheWaitIsFull) {
  AdmissionGate gate(/*executors=*/2, /*queue_capacity=*/1);
  EXPECT_EQ(gate.capacity(), 1u);
  // Free slots: both run at once, however small the wait bound.
  ASSERT_EQ(gate.enter(), Entry::kRun);
  ASSERT_EQ(gate.enter(), Entry::kRun);
  EXPECT_EQ(gate.depth(), 0u);

  std::atomic<int> ran{0};
  std::thread first = waiter(gate, ran);
  await_depth(gate, 1);
  // One request waits and the bound is one: the next one sheds, at once
  // and without taking a ticket.
  EXPECT_EQ(gate.enter(), Entry::kShed);
  EXPECT_EQ(gate.depth(), 1u);
  EXPECT_EQ(gate.admitted(), 3u);

  // A slot frees up: the waiter owns it from that moment, so the wait is
  // empty again and the next request waits instead of shedding.
  gate.leave();
  EXPECT_EQ(gate.depth(), 0u);
  first.join();
  EXPECT_EQ(ran.load(), 1);
  // One slot is still held and the other is free again: run at once.
  ASSERT_EQ(gate.enter(), Entry::kRun);
  std::thread second = waiter(gate, ran);
  await_depth(gate, 1);
  gate.leave();
  second.join();
  gate.leave();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(gate.depth(), 0u);
}

TEST(AdmissionGate, CloseRefusesNewButLetsWaitingRun) {
  AdmissionGate gate(/*executors=*/1, /*queue_capacity=*/4);
  ASSERT_EQ(gate.enter(), Entry::kRun);
  std::atomic<int> ran{0};
  std::thread a = waiter(gate, ran);
  await_depth(gate, 1);
  std::thread b = waiter(gate, ran);
  await_depth(gate, 2);

  gate.close();
  // Refused for shutdown, not shed, and not admitted.
  EXPECT_EQ(gate.enter(), Entry::kClosed);
  EXPECT_EQ(gate.depth(), 2u);
  EXPECT_EQ(gate.admitted(), 3u);

  // Waiting work survives the close: drain semantics.
  gate.leave();
  a.join();
  b.join();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(gate.depth(), 0u);
  gate.close();  // idempotent
  EXPECT_EQ(gate.enter(), Entry::kClosed);
}

TEST(AdmissionGate, HighWaterIsTheDeepestWait) {
  AdmissionGate gate(/*executors=*/2, /*queue_capacity=*/8);
  // Requests that find a free slot never count as waiting.
  ASSERT_EQ(gate.enter(), Entry::kRun);
  ASSERT_EQ(gate.enter(), Entry::kRun);
  EXPECT_EQ(gate.high_water(), 0u);

  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    threads.push_back(waiter(gate, ran));
    await_depth(gate, i);
  }
  EXPECT_EQ(gate.high_water(), 3u);
  gate.leave();
  gate.leave();
  for (auto& t : threads) t.join();
  EXPECT_EQ(ran.load(), 3);

  // A shallower wait later leaves the mark where it was.
  ASSERT_EQ(gate.enter(), Entry::kRun);
  ASSERT_EQ(gate.enter(), Entry::kRun);
  std::thread late = waiter(gate, ran);
  await_depth(gate, 1);
  gate.leave();
  late.join();
  gate.leave();
  EXPECT_EQ(gate.high_water(), 3u);
  EXPECT_EQ(gate.depth(), 0u);
}

}  // namespace
}  // namespace hepex::svc
