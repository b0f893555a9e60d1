// Adversarial tests for the event calendar (sim/calendar.hpp): the
// determinism contract says pop order is exactly the (time, seq) order of
// a reference priority queue, through every structural edge — ties,
// monotone bursts, far-future stragglers, draining and refilling, and
// actions that push while they fire. A reference model (stable sort by
// (time, seq), or an ordered set fed the same pushes) is the oracle
// throughout. The suite keeps its `ShardedCalendar` name so its test ids
// stay stable across the calendar's redesign.

#include "sim/calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace hepex::sim {
namespace {

struct Ref {
  double time;
  std::uint64_t seq;
};

/// Oracle order: (time, seq) ascending — what one global calendar does.
std::vector<std::uint64_t> reference_order(std::vector<Ref> refs) {
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  std::vector<std::uint64_t> order;
  order.reserve(refs.size());
  for (const Ref& r : refs) order.push_back(r.seq);
  return order;
}

/// Oracle for interleaved push/pop: an ordered set of pending
/// (time, seq) keys that also tracks its largest size.
class RefQueue {
 public:
  void push(double time, std::uint64_t seq) {
    keys_.emplace(time, seq);
    max_size_ = std::max(max_size_, keys_.size());
  }
  std::pair<double, std::uint64_t> pop() {
    const auto k = *keys_.begin();
    keys_.erase(keys_.begin());
    return k;
  }
  std::size_t max_size() const { return max_size_; }

 private:
  std::set<std::pair<double, std::uint64_t>> keys_;
  std::size_t max_size_ = 0;
};

/// Drain the calendar, releasing each action; returns pop order as seqs
/// (the payload each pushed action records).
std::vector<std::uint64_t> drain(EventCalendar& cal,
                                 std::vector<std::uint64_t>& fired) {
  fired.clear();
  double last_time = -1.0;
  while (!cal.empty()) {
    const q::Seconds top = cal.top_time();
    const auto ev = cal.pop();
    EXPECT_EQ(ev.time, top) << "top_time disagrees with pop";
    EXPECT_GE(ev.time.value(), last_time) << "time went backwards";
    last_time = ev.time.value();
    cal.run_slot(ev.slot);
    cal.release_slot(ev.slot);
  }
  return fired;
}

/// Push `refs` into a fresh calendar, then drain and compare against the
/// oracle.
void check_equivalence(const std::vector<Ref>& refs) {
  EventCalendar cal;
  std::vector<std::uint64_t> fired;
  for (const Ref& r : refs) {
    const std::uint64_t seq = r.seq;
    cal.push(q::Seconds{r.time}, r.seq,
             [&fired, seq] { fired.push_back(seq); });
  }
  EXPECT_EQ(cal.size(), refs.size());
  const auto got = drain(cal, fired);
  EXPECT_EQ(got, reference_order(refs));
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.stats().peak_pending, refs.size());
}

TEST(ShardedCalendar, RandomizedMatchesReferenceAcrossShardCounts) {
  // Random times drawn from a small set so ties are common — the general
  // case of the equivalence claim, over several seeds.
  for (const std::uint64_t seed : {43u, 44u, 45u, 50u, 106u}) {
    util::Rng rng{seed};
    std::vector<Ref> refs;
    for (std::uint64_t seq = 0; seq < 500; ++seq) {
      refs.push_back(Ref{static_cast<double>(rng() % 23) * 0.5, seq});
    }
    check_equivalence(refs);
  }
}

TEST(ShardedCalendar, AllTiedTimesPopInSeqOrder) {
  // Every event at the same instant: FIFO by seq is the whole order, and
  // every comparison exercises the tie-break.
  std::vector<Ref> refs;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    refs.push_back(Ref{1.0, seq});
  }
  check_equivalence(refs);
}

TEST(ShardedCalendar, MonotoneBurstRoundRobin) {
  // Strictly increasing times: each push lands at the bottom of the heap
  // and each pop sinks the last key from the root.
  std::vector<Ref> refs;
  for (std::uint64_t seq = 0; seq < 300; ++seq) {
    refs.push_back(Ref{static_cast<double>(seq), seq});
  }
  check_equivalence(refs);
}

TEST(ShardedCalendar, InterleavedFarFuture) {
  // A block of far-future events first, then near-term events that must
  // overtake them.
  std::vector<Ref> refs;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    refs.push_back(Ref{1e9 + static_cast<double>(i), seq});
    ++seq;
  }
  for (int i = 0; i < 200; ++i) {
    refs.push_back(Ref{static_cast<double>(i % 17), seq});
    ++seq;
  }
  check_equivalence(refs);
}

TEST(ShardedCalendar, ReentrantPushDuringDrain) {
  // The engine's actual shape: each fired action schedules follow-ups
  // while it runs — one a step later and one at a tied timestamp. Oracle:
  // a reference queue fed the identical pushes, checked pop by pop.
  EventCalendar cal;
  RefQueue ref;
  std::vector<std::pair<double, std::uint64_t>> fired;
  std::uint64_t seq = 0;
  struct Chain {
    EventCalendar* cal;
    RefQueue* ref;
    std::vector<std::pair<double, std::uint64_t>>* fired;
    std::uint64_t* seq;
    double time;
    std::uint64_t own_seq;
    int depth;
    void push(const Chain& c) const {
      Chain next = c;
      next.own_seq = (*seq)++;
      ref->push(next.time, next.own_seq);
      cal->push(q::Seconds{next.time}, next.own_seq, next);
    }
    void operator()() const {
      fired->emplace_back(time, own_seq);
      if (depth >= 6) return;
      Chain next = *this;
      next.depth = depth + 1;
      next.time = time + 1.0;
      push(next);  // a later follow-up...
      push(next);  // ...and a second one tied with it
    }
  };
  constexpr int kChains = 8;
  for (int s = 0; s < kChains; ++s) {
    const Chain start{&cal, &ref, &fired, &seq,
                      0.25 * static_cast<double>(s % 3), 0, 0};
    start.push(start);
  }
  std::size_t pops = 0;
  while (!cal.empty()) {
    const auto ev = cal.pop();
    const auto want = ref.pop();
    cal.run_slot(ev.slot);
    cal.release_slot(ev.slot);
    ASSERT_EQ(fired.size(), pops + 1);
    EXPECT_EQ(fired.back(), want) << "pop " << pops;
    EXPECT_EQ(ev.time.value(), want.first) << "pop " << pops;
    ++pops;
  }
  // 8 chains, each a binary tree of depth 6: 8 * (2^7 - 1) events.
  EXPECT_EQ(pops, 8u * 127u);
  EXPECT_EQ(cal.stats().peak_pending, ref.max_size());
}

TEST(ShardedCalendar, DeepTiedMonotoneRunsMatchReferencePopByPop) {
  // The switch queue at 1000 nodes: many FCFS stations each hold a
  // monotone run of completion times with a few shared service times, so
  // exact-time ties across runs are everywhere and >10k keys are pending
  // at once. Each fired event also re-queues a follow-up at its station's
  // tail, the way a busy station starts its next job.
  EventCalendar cal;
  RefQueue ref;
  std::uint64_t seq = 0;
  std::vector<std::pair<double, std::uint64_t>> fired;
  std::vector<double> tail;  // last completion time per station
  const auto push = [&](double time) {
    const std::uint64_t s = seq++;
    ref.push(time, s);
    cal.push(q::Seconds{time}, s,
             [&fired, time, s] { fired.emplace_back(time, s); });
  };
  constexpr int kStations = 160;
  constexpr int kRun = 80;  // 160 * 80 = 12,800 pending keys
  util::Rng rng{7};
  tail.assign(kStations, 0.0);
  for (int j = 0; j < kRun; ++j) {
    for (int st = 0; st < kStations; ++st) {
      // Service times are multiples of 0.25 (exactly representable), so
      // equal sums land on identical doubles across stations.
      tail[static_cast<std::size_t>(st)] +=
          0.25 * static_cast<double>(1 + rng() % 3);
      push(tail[static_cast<std::size_t>(st)]);
    }
  }
  ASSERT_GE(cal.size(), 10'000u);
  std::size_t pops = 0;
  double last_time = -1.0;
  while (!cal.empty()) {
    const auto ev = cal.pop();
    const auto want = ref.pop();
    cal.run_slot(ev.slot);
    cal.release_slot(ev.slot);
    ASSERT_EQ(fired.back(), want) << "pop " << pops;
    ASSERT_GE(ev.time.value(), last_time);
    last_time = ev.time.value();
    if (pops % 3 == 0 && pops < 30'000) {
      auto& t = tail[static_cast<std::size_t>(pops % kStations)];
      t = std::max(t, ev.time.value()) + 0.25;
      push(t);
    }
    ++pops;
  }
  EXPECT_EQ(pops, seq);
  EXPECT_EQ(cal.stats().peak_pending, ref.max_size());
  EXPECT_EQ(cal.stats().slot_acquires, seq);
}

TEST(ShardedCalendar, DrainAndRefill) {
  // Draining to empty and refilling must behave like a fresh calendar.
  EventCalendar cal;
  std::vector<std::uint64_t> fired;
  for (int round = 0; round < 3; ++round) {
    std::vector<Ref> refs;
    for (std::uint64_t i = 0; i < 50; ++i) {
      const auto seq = static_cast<std::uint64_t>(round) * 1000 + i;
      refs.push_back(Ref{static_cast<double>(i % 7), seq});
      cal.push(q::Seconds{refs.back().time}, seq,
               [&fired, seq] { fired.push_back(seq); });
    }
    EXPECT_EQ(drain(cal, fired), reference_order(refs)) << "round=" << round;
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.size(), 0u);
  }
  const auto stats = cal.stats();
  EXPECT_EQ(stats.slot_acquires, 150u);
  EXPECT_EQ(stats.peak_pending, 50u);
  EXPECT_EQ(stats.slot_high_water, 50u);
  EXPECT_EQ(stats.slot_chunks, 1u);  // 50 live slots fit one 64-slot chunk
}

TEST(ShardedCalendar, ReservePresizesPool) {
  EventCalendar cal;
  cal.reserve(200);
  EXPECT_GE(cal.stats().slot_chunks, 4u);  // ceil(200 / 64) chunks up front
  std::vector<std::uint64_t> fired;
  std::vector<Ref> refs;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    refs.push_back(Ref{static_cast<double>(seq % 11), seq});
    cal.push(q::Seconds{refs.back().time}, seq,
             [&fired, seq] { fired.push_back(seq); });
  }
  const auto chunks_after_reserve = cal.stats().slot_chunks;
  EXPECT_EQ(drain(cal, fired), reference_order(refs));
  EXPECT_EQ(cal.stats().slot_chunks, chunks_after_reserve)
      << "pushes after reserve() must not grow the pool";
}

TEST(ShardedCalendar, PendingActionsDestroyedOnCalendarDrop) {
  // Dropping a calendar with parked actions must run their destructors
  // (the ActionPool unwind path); a shared_ptr refcount is the witness.
  auto token = std::make_shared<int>(7);
  {
    EventCalendar cal;
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
      cal.push(q::Seconds{1.0}, seq, [token] { (void)*token; });
    }
    EXPECT_EQ(token.use_count(), 11);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hepex::sim
