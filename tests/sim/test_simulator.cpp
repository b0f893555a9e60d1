// Tests for the discrete-event kernel: ordering, clock, determinism.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

namespace hepex::sim {
namespace {

TEST(Simulator, StartsAtTimeZeroAndEmpty) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime{0.0});
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, EventsFireInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime{3.0}, [&] { order.push_back(3); });
  sim.schedule(SimTime{1.0}, [&] { order.push_back(1); });
  sim.schedule(SimTime{2.0}, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime{3.0});
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(SimTime{1.0}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, HandlersMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  // A chain of events, each scheduling the next.
  std::function<void()> step = [&] {
    ++fired;
    if (fired < 5) sim.schedule(SimTime{1.0}, step);
  };
  sim.schedule(SimTime{0.0}, step);
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), SimTime{4.0});
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(SimTime{-1.0}, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleAtBeforeNowThrows) {
  Simulator sim;
  sim.schedule(SimTime{5.0}, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), SimTime{5.0});
  EXPECT_THROW(sim.schedule_at(SimTime{4.0}, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen{-1.0};
  sim.schedule_at(SimTime{7.5}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{7.5});
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime{1.0}, [&] { ++fired; });
  sim.schedule(SimTime{2.0}, [&] { ++fired; });
  sim.schedule(SimTime{10.0}, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime{5.0}), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime{5.0});  // clock advances to the boundary
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilIncludesEventsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime{5.0}, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime{5.0}), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilRunsBoundaryEventsScheduledMidCall) {
  // Pins the header's boundary guarantee: an event scheduled at exactly
  // t_end *from within a fired action* still runs in this run_until call,
  // because the loop re-reads the calendar top after every action. The
  // fault watchdog relies on this — a detection armed for the boundary
  // instant must not slip to the next drain.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime{1.0}, [&] {
    order.push_back(1);
    sim.schedule_at(SimTime{5.0}, [&] { order.push_back(2); });  // exactly t_end
  });
  EXPECT_EQ(sim.run_until(SimTime{5.0}), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime{5.0});
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, MaxEventsLimitsProcessing) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(SimTime{static_cast<double>(i)}, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_FALSE(sim.empty());
}

TEST(Simulator, TotalScheduledCounts) {
  Simulator sim;
  sim.schedule(SimTime{1.0}, [] {});
  sim.schedule(SimTime{2.0}, [] {});
  EXPECT_EQ(sim.total_scheduled(), 2u);
}

TEST(Simulator, TotalProcessedAccumulatesAcrossRuns) {
  Simulator sim;
  EXPECT_EQ(sim.total_processed(), 0u);
  for (int i = 0; i < 6; ++i) sim.schedule(SimTime{static_cast<double>(i)}, [] {});
  EXPECT_EQ(sim.run(2), 2u);
  EXPECT_EQ(sim.total_processed(), 2u);
  EXPECT_EQ(sim.run_until(SimTime{3.0}), 2u);
  EXPECT_EQ(sim.total_processed(), 4u);
  sim.run();
  EXPECT_EQ(sim.total_processed(), 6u);
  EXPECT_EQ(sim.total_processed(), sim.total_scheduled());
}

TEST(Simulator, DefaultRunIsUnbounded) {
  // The default max_events is numeric_limits<size_t>::max(), not a magic
  // sentinel — everything queued drains in one call.
  Simulator sim;
  int fired = 0;
  std::function<void()> step = [&] {
    ++fired;
    if (fired < 1000) sim.schedule(SimTime{0.5}, step);
  };
  sim.schedule(SimTime{0.0}, step);
  EXPECT_EQ(sim.run(), 1000u);
  EXPECT_EQ(fired, 1000);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  sim.schedule(SimTime{2.0}, [&] {
    sim.schedule(SimTime{0.0}, [&] { EXPECT_EQ(sim.now(), SimTime{2.0}); });
  });
  sim.run();
  EXPECT_EQ(sim.now(), SimTime{2.0});
}

TEST(Simulator, ThrowingActionIsDestroyedWithTheSimulator) {
  // An action that throws out of run() is popped but never released, and
  // the two events it scheduled stay parked. Dropping the simulator must
  // still destroy all three captures; a shared_ptr count is the witness.
  auto token = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.schedule(SimTime{1.0}, [&sim, token] {
      sim.schedule(SimTime{1.0}, [token] { (void)*token; });
      sim.schedule(SimTime{2.0}, [token] { (void)*token; });
      throw std::runtime_error("action failed");
    });
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 4);  // the thrower and both parked events
    EXPECT_FALSE(sim.empty());
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hepex::sim
