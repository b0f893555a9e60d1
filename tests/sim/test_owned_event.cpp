// Owned events (sim::Event, event_fn.hpp): an event that lives in its
// owner and is scheduled by reference. They share the calendar's
// (time, seq) order with pooled closures, honour run_until's boundary,
// and a re-schedule while a key is pending supersedes that key exactly as
// a stale closure that returns at once would: same clock, same
// events_processed, same sequence numbers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace hepex::sim {
namespace {

/// A fire event in a log: (label, time, seq of the scheduling that fired).
struct Firing {
  int label;
  double time;
  std::uint64_t seq;
  bool operator==(const Firing& o) const {
    return label == o.label && time == o.time && seq == o.seq;
  }
};

/// An owned event that logs each firing and may re-schedule itself.
struct Probe : Event {
  Simulator* sim = nullptr;
  std::vector<Firing>* log = nullptr;
  int label = 0;
  int repeats = 0;       ///< re-schedules from inside its own handler
  SimTime step{};        ///< delay of those re-schedules

  Probe(Simulator& s, std::vector<Firing>& l, int lbl)
      : Event{&Probe::fire_probe, 0}, sim(&s), log(&l), label(lbl) {}

  static void fire_probe(Event& ev) {
    Probe& p = static_cast<Probe&>(ev);
    p.log->push_back(Firing{p.label, p.sim->now().value(), p.seq});
    if (p.repeats > 0) {
      --p.repeats;
      p.sim->schedule(p.step, p);
    }
  }
};

TEST(OwnedEvent, OwnedAndPooledAtEqualTimesFireInSeqOrder) {
  // Owned events and closures interleaved at the same instants, pushed
  // both into the tail run and behind it (the heap): the firing order is
  // the scheduling order within each instant, whatever the event's kind.
  Simulator sim;
  std::vector<Firing> log;
  std::vector<Probe> probes;
  probes.reserve(6);
  for (int i = 0; i < 6; ++i) probes.emplace_back(sim, log, 100 + i);
  std::vector<Firing> want;
  int next_probe = 0;
  for (const double t : {2.0, 2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 1.0, 2.0, 3.0,
                         1.0, 2.0}) {
    const std::uint64_t seq = sim.total_scheduled();
    if (seq % 2 == 0) {
      Probe& p = probes[static_cast<std::size_t>(next_probe++)];
      sim.schedule(SimTime{t}, p);
      want.push_back(Firing{p.label, t, seq});
    } else {
      const int label = static_cast<int>(seq);
      sim.schedule(SimTime{t}, [&log, &sim, label, seq] {
        log.push_back(Firing{label, sim.now().value(), seq});
      });
      want.push_back(Firing{label, t, seq});
    }
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const Firing& a, const Firing& b) {
                     return a.time < b.time;  // seq ascending within a time
                   });
  EXPECT_GT(sim.calendar_stats().heap_pushes, 0u);
  EXPECT_EQ(sim.run(), 12u);
  EXPECT_EQ(log, want);
  const CalendarStats stats = sim.calendar_stats();
  EXPECT_EQ(stats.pushes, 12u);
  EXPECT_EQ(stats.slot_acquires, 6u);  // the closures only
  EXPECT_EQ(stats.superseded, 0u);
}

TEST(OwnedEvent, RunUntilBoundaryFallsOnOwnedEvent) {
  // An owned event at exactly t_end fires in this call, and so does its
  // zero-delay re-schedule from inside its own handler (the header's
  // boundary guarantee); the later closure waits for the next call.
  Simulator sim;
  std::vector<Firing> log;
  Probe p(sim, log, 1);
  p.repeats = 1;
  p.step = SimTime{0.0};
  bool late = false;
  sim.schedule(SimTime{5.0}, p);                         // seq 0
  sim.schedule(SimTime{7.0}, [&late] { late = true; });  // seq 1
  EXPECT_EQ(sim.run_until(SimTime{5.0}), 2u);
  EXPECT_EQ(sim.now(), SimTime{5.0});
  EXPECT_EQ(log, (std::vector<Firing>{{1, 5.0, 0}, {1, 5.0, 2}}));
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.run_until(SimTime{6.0}), 0u);
  EXPECT_EQ(sim.now(), SimTime{6.0});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(late);
  EXPECT_EQ(sim.calendar_stats().superseded, 0u);
}

/// Step `sim` one event at a time; returns the clock after each event.
std::vector<double> step_clock(Simulator& sim) {
  std::vector<double> clock;
  while (!sim.empty()) {
    EXPECT_EQ(sim.run(1), 1u);
    clock.push_back(sim.now().value());
  }
  return clock;
}

TEST(OwnedEvent, ReschedulingWhilePendingSupersedesLikeAStaleClosure) {
  // The engine's recovery case: an event is pending from an abandoned
  // epoch when its owner is scheduled again. With closures, the stale one
  // pops, fires and returns on its epoch check. With an owned event the
  // stale key pops without firing. Both runs must agree on the clock at
  // every pop, on events_processed and on the sequence numbers.
  std::vector<Firing> owned_log;
  std::vector<double> owned_clock;
  CalendarStats owned_stats;
  std::uint64_t owned_processed = 0;
  std::uint64_t owned_scheduled = 0;
  {
    Simulator sim;
    Probe p(sim, owned_log, 1);
    sim.schedule(SimTime{3.0}, p);  // seq 0: the abandoned epoch's key
    sim.schedule(SimTime{1.0}, [&sim, &p] {  // seq 1: the restart
      sim.schedule(SimTime{1.0}, p);        // seq 3 at t=2 supersedes seq 0
    });
    sim.schedule(SimTime{4.0}, [] {});  // seq 2
    owned_clock = step_clock(sim);
    owned_stats = sim.calendar_stats();
    owned_processed = sim.total_processed();
    owned_scheduled = sim.total_scheduled();
  }

  std::vector<Firing> stale_log;
  std::vector<double> stale_clock;
  CalendarStats stale_stats;
  std::uint64_t stale_processed = 0;
  std::uint64_t stale_scheduled = 0;
  {
    Simulator sim;
    int epoch = 0;
    const auto compute_end = [&sim, &stale_log, &epoch](int e,
                                                        std::uint64_t seq) {
      return [&sim, &stale_log, &epoch, e, seq] {
        if (e != epoch) return;  // stale: fires and returns at once
        stale_log.push_back(Firing{1, sim.now().value(), seq});
      };
    };
    sim.schedule(SimTime{3.0}, compute_end(epoch, sim.total_scheduled()));
    sim.schedule(SimTime{1.0}, [&sim, &epoch, &compute_end] {
      ++epoch;
      sim.schedule(SimTime{1.0}, compute_end(epoch, sim.total_scheduled()));
    });
    sim.schedule(SimTime{4.0}, [] {});
    stale_clock = step_clock(sim);
    stale_stats = sim.calendar_stats();
    stale_processed = sim.total_processed();
    stale_scheduled = sim.total_scheduled();
  }

  EXPECT_EQ(owned_log, (std::vector<Firing>{{1, 2.0, 3}}));
  EXPECT_EQ(owned_log, stale_log);
  EXPECT_EQ(owned_clock, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(owned_clock, stale_clock);
  EXPECT_EQ(owned_processed, 4u);
  EXPECT_EQ(owned_processed, stale_processed);
  EXPECT_EQ(owned_scheduled, stale_scheduled);
  EXPECT_EQ(owned_stats.pushes, stale_stats.pushes);
  EXPECT_EQ(owned_stats.peak_pending, stale_stats.peak_pending);
  EXPECT_EQ(owned_stats.superseded, 1u);
  EXPECT_EQ(stale_stats.superseded, 0u);
  EXPECT_EQ(owned_stats.slot_acquires, 2u);  // the restart and the t=4 closure
}

TEST(OwnedEvent, SupersededKeyLeftPendingAfterTheNewOneFires) {
  // The newer key fires first and the owner re-schedules itself again; the
  // old key, still pending, must not fire when it pops later.
  Simulator sim;
  std::vector<Firing> log;
  Probe p(sim, log, 7);
  sim.schedule(SimTime{10.0}, p);  // seq 0, superseded below
  p.repeats = 1;
  p.step = SimTime{2.0};
  sim.schedule(SimTime{1.0}, p);   // seq 1 at t=1, then seq 2 at t=3
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, (std::vector<Firing>{{7, 1.0, 1}, {7, 3.0, 2}}));
  EXPECT_EQ(sim.now(), SimTime{10.0});
  EXPECT_EQ(sim.calendar_stats().superseded, 1u);
}

TEST(OwnedEvent, StationJobsAcquireNoPoolSlot) {
  // A station is its own completion event: N jobs, most of them queued,
  // push N keys and park no closure.
  Simulator sim;
  Resource station(sim);
  constexpr int kJobs = 200;
  int done = 0;
  for (int i = 0; i < kJobs; ++i) {
    station.request(SimTime{0.5}, [&done](SimTime) { ++done; });
  }
  EXPECT_EQ(station.queue_length(), static_cast<std::size_t>(kJobs - 1));
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(done, kJobs);
  EXPECT_EQ(station.completed(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(sim.now(), SimTime{0.5 * kJobs});
  const CalendarStats stats = sim.calendar_stats();
  EXPECT_EQ(stats.pushes, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.slot_acquires, 0u);
  EXPECT_EQ(stats.slot_chunks, 0u);
  EXPECT_EQ(stats.superseded, 0u);
  EXPECT_EQ(stats.peak_pending, 1u);
}

}  // namespace
}  // namespace hepex::sim
