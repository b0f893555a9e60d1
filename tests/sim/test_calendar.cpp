// Adversarial tests for the event calendar (sim/calendar.hpp): the
// determinism contract says pop order is exactly the (time, seq) order of
// a reference priority queue, through every structural edge — ties,
// monotone bursts, far-future stragglers, draining and refilling, actions
// that push while they fire, and keys split between the tail run and the
// heap (ties across the two stores, the run's ring wrapping and growing).
// A reference model (stable sort by (time, seq), or an ordered set fed
// the same pushes) is the oracle throughout. The suite keeps its `ShardedCalendar` name so its test ids
// stay stable across the calendar's redesign.

#include "sim/calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
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
  std::size_t size() const { return keys_.size(); }
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
    (*ev.action())();
    cal.release(ev.action());
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
    (*ev.action())();
    cal.release(ev.action());
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
    (*ev.action())();
    cal.release(ev.action());
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

/// A calendar fed in lockstep with a RefQueue: every push goes to both,
/// and every pop is checked against the oracle as it happens.
class Lockstep {
 public:
  /// Returns the key's seq.
  std::uint64_t push(double time) {
    const std::uint64_t s = seq_++;
    ref_.push(time, s);
    cal_.push(q::Seconds{time}, s, [this, time, s] {
      fired_.emplace_back(time, s);
    });
    return s;
  }
  /// Pop one event, run it, and check it against the oracle.
  void pop_and_check() {
    ASSERT_FALSE(cal_.empty());
    const auto want = ref_.pop();
    ASSERT_EQ(cal_.top_time().value(), want.first) << "pop " << pops_;
    const auto ev = cal_.pop();
    (*ev.action())();
    cal_.release(ev.action());
    ASSERT_EQ(fired_.back(), want) << "pop " << pops_;
    ASSERT_EQ(ev.time.value(), want.first) << "pop " << pops_;
    ++pops_;
  }
  void drain() {
    while (!cal_.empty()) pop_and_check();
  }
  EventCalendar& cal() { return cal_; }
  RefQueue& ref() { return ref_; }
  std::uint64_t pushes() const { return seq_; }
  /// The last event fired, as (time, seq).
  const std::pair<double, std::uint64_t>& last() const {
    return fired_.back();
  }

 private:
  EventCalendar cal_;
  RefQueue ref_;
  std::vector<std::pair<double, std::uint64_t>> fired_;
  std::uint64_t seq_ = 0;
  std::size_t pops_ = 0;
};

TEST(ShardedCalendar, HoldModelStreamWithFarBacklog) {
  // A 2,000-key far backlog, half of it ascending (it fills the run) and
  // half in random order on the same 0.25 grid (it lands in the heap, with
  // exact time ties against run keys). In front of it runs a hold stream
  // of 32 lanes: each fired lane event schedules its successor a
  // near-constant step ahead, and every third one also schedules a
  // one-off key tied with the current top (just behind it by seq). Those
  // near keys are behind the run's far tail, so they go through the heap
  // while the run's front waits.
  Lockstep ls;
  util::Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    ls.push(1000.0 + 0.25 * static_cast<double>(4 * i));
  }
  for (int i = 0; i < 1000; ++i) {  // all before the run's tail, 1999.0
    ls.push(1000.0 + 0.25 * static_cast<double>(rng() % 3996));
  }
  std::set<std::uint64_t> lanes;
  for (int i = 0; i < 32; ++i) {
    lanes.insert(ls.push(0.125 * static_cast<double>(i)));
  }
  int lane_pops = 0;
  while (!ls.cal().empty()) {
    ls.pop_and_check();
    if (::testing::Test::HasFatalFailure()) return;
    const auto [t, seq] = ls.last();
    if (lanes.erase(seq) == 0 || t >= 900.0) continue;
    lanes.insert(ls.push(t + 4.0 + 0.125 * static_cast<double>(rng() % 3)));
    if (++lane_pops % 3 == 0) ls.push(ls.cal().top_time().value());
  }
  EXPECT_GT(lane_pops, 5000);
  const CalendarStats stats = ls.cal().stats();
  EXPECT_EQ(stats.slot_acquires, ls.pushes());
  EXPECT_EQ(stats.peak_pending, ls.ref().max_size());
  // Both stores carried traffic: the ascending half in the run, the rest
  // in the heap.
  EXPECT_EQ(stats.slot_acquires - stats.heap_pushes, 1000u);
}

TEST(ShardedCalendar, TieAcrossRunAndHeapIsDecidedBySeq) {
  // Keys at the same instant, some in the run and some in the heap: the
  // lower seq pops first whichever store holds it.
  Lockstep ls;
  ls.push(1.0);  // seq 0: run (empty run)
  ls.push(2.0);  // seq 1: run (later than the tail)
  ls.push(1.0);  // seq 2: heap, tied with the run's front (seq 0)
  ls.push(2.0);  // seq 3: run, tied with the tail but later by seq
  ls.push(1.0);  // seq 4: heap
  ls.push(2.0);  // seq 5: run
  EXPECT_EQ(ls.cal().stats().heap_pushes, 2u);
  // Front of the run (1.0, 0) against the heap's (1.0, 2): seq 0 first;
  // then the heap's two 1.0 keys before the run's 2.0 keys.
  ls.drain();
  EXPECT_EQ(ls.ref().size(), 0u);
}

TEST(ShardedCalendar, RunRingWrapsAndGrowsWhileWrapped) {
  // A monotone stream never touches the heap: the run alone holds it.
  // Sliding a window of `width` pending keys by an odd number of
  // pop/push steps walks the ring's head around it, so the ring wraps;
  // widening the window then grows the ring while its head sits mid-way.
  Lockstep ls;
  double t = 0.0;
  for (const std::size_t width :
       {1, 2, 3, 31, 63, 64, 65, 100, 127, 128, 129, 255, 256, 257}) {
    while (ls.cal().size() < width) ls.push(t += 0.5);
    for (int step = 0; step < 301; ++step) {
      ls.pop_and_check();
      if (::testing::Test::HasFatalFailure()) return;
      ls.push(t += 0.5);
    }
    ASSERT_EQ(ls.cal().size(), width);
  }
  ls.drain();
  const CalendarStats stats = ls.cal().stats();
  EXPECT_EQ(stats.heap_pushes, 0u);
  EXPECT_EQ(stats.peak_pending, 257u);
}

TEST(ShardedCalendar, SizeAndPeakPendingCountRunPlusHeap) {
  Lockstep ls;
  const auto expect_size = [&ls] {
    EXPECT_EQ(ls.cal().size(), ls.ref().size());
    EXPECT_EQ(ls.cal().empty(), ls.ref().size() == 0);
  };
  for (const double time : {5.0, 6.0, 7.0}) ls.push(time);  // run
  for (const double time : {1.0, 2.0}) ls.push(time);       // heap
  expect_size();
  EXPECT_EQ(ls.cal().size(), 5u);
  EXPECT_EQ(ls.cal().stats().heap_pushes, 2u);
  ls.pop_and_check();  // 1.0 from the heap
  ls.pop_and_check();  // 2.0 from the heap
  expect_size();
  ls.push(3.0);  // behind the run's tail: heap
  ls.push(8.0);  // run
  expect_size();
  EXPECT_EQ(ls.cal().size(), 5u);
  ls.push(9.0);
  expect_size();
  EXPECT_EQ(ls.cal().stats().peak_pending, 6u);
  ls.drain();
  expect_size();
  const CalendarStats stats = ls.cal().stats();
  EXPECT_EQ(stats.peak_pending, ls.ref().max_size());
  EXPECT_EQ(stats.peak_pending, 6u);
  EXPECT_EQ(stats.heap_pushes, 3u);
  EXPECT_EQ(stats.slot_acquires, 8u);
}

TEST(ShardedCalendar, RunUntilBoundaryEventsInBothStores) {
  // One boundary event sits in the run and one in the heap: run_until
  // fires both, in seq order, and stops before the later event.
  Simulator sim;
  RefQueue ref;
  std::vector<std::pair<double, std::uint64_t>> fired;
  std::uint64_t seq = 0;
  const auto at = [&](double time) {
    const std::uint64_t s = seq++;
    ref.push(time, s);
    sim.schedule_at(q::Seconds{time},
                    [&fired, time, s] { fired.emplace_back(time, s); });
  };
  at(5.0);  // run
  at(7.0);  // run
  at(5.0);  // heap: behind the run's tail, tied with its front
  EXPECT_EQ(sim.calendar_stats().heap_pushes, 1u);
  EXPECT_EQ(sim.run_until(q::Seconds{5.0}), 2u);
  EXPECT_EQ(sim.now(), q::Seconds{5.0});
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], ref.pop());
  EXPECT_EQ(fired[1], ref.pop());
  EXPECT_EQ(fired[1].second, 2u);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired.back(), ref.pop());
  EXPECT_EQ(sim.now(), q::Seconds{7.0});
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
