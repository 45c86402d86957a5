#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

namespace flower::sim {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  ASSERT_TRUE(sim.ScheduleAt(3.0, [&] { order.push_back(3); }).ok());
  ASSERT_TRUE(sim.ScheduleAt(1.0, [&] { order.push_back(1); }).ok());
  ASSERT_TRUE(sim.ScheduleAt(2.0, [&] { order.push_back(2); }).ok());
  sim.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 10.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulationTest, SameTimeEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); }).ok());
  }
  sim.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, SchedulingInPastFails) {
  Simulation sim;
  ASSERT_TRUE(sim.ScheduleAt(5.0, [] {}).ok());
  sim.RunUntil(5.0);
  EXPECT_FALSE(sim.ScheduleAt(4.0, [] {}).ok());
  EXPECT_FALSE(sim.ScheduleAfter(-1.0, [] {}).ok());
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  ASSERT_TRUE(sim.ScheduleAt(5.0, [&] { ++fired; }).ok());
  ASSERT_TRUE(sim.ScheduleAt(15.0, [&] { ++fired; }).ok());
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 10.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<double> fire_times;
  ASSERT_TRUE(sim.ScheduleAt(1.0, [&] {
    fire_times.push_back(sim.Now());
    (void)sim.ScheduleAfter(2.0, [&] { fire_times.push_back(sim.Now()); });
  }).ok());
  sim.RunUntil(10.0);
  EXPECT_EQ(fire_times, (std::vector<double>{1.0, 3.0}));
}

TEST(SimulationTest, PeriodicFiresUntilCallbackStops) {
  Simulation sim;
  int count = 0;
  ASSERT_TRUE(sim.SchedulePeriodic(10.0, 10.0, [&] {
    ++count;
    return count < 3;
  }).ok());
  sim.RunUntil(100.0);
  EXPECT_EQ(count, 3);
}

TEST(SimulationTest, PeriodicRunsForever) {
  Simulation sim;
  int count = 0;
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    ++count;
    return true;
  }).ok());
  sim.RunUntil(100.0);
  EXPECT_EQ(count, 100);
}

TEST(SimulationTest, PeriodicValidatesArguments) {
  Simulation sim;
  EXPECT_FALSE(sim.SchedulePeriodic(0.0, 0.0, [] { return true; }).ok());
  EXPECT_FALSE(sim.SchedulePeriodic(0.0, -5.0, [] { return true; }).ok());
}

// NaN compares false against every bound, so the `< now` / `< 0` /
// `<= 0` checks alone would let it reach the tick computation's
// float-to-integer cast (undefined behaviour) and run an event with
// Now() == NaN. Infinities are rejected too.
TEST(SimulationTest, ScheduleAtRejectsNonFiniteTime) {
  Simulation sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sim.ScheduleAt(nan, [] {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.ScheduleAt(inf, [] {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, ScheduleAfterRejectsNonFiniteDelay) {
  Simulation sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sim.ScheduleAfter(nan, [] {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.ScheduleAfter(inf, [] {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, SchedulePeriodicRejectsNonFiniteStart) {
  Simulation sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(sim.SchedulePeriodic(nan, 1.0, [] { return true; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, SchedulePeriodicRejectsNonFinitePeriod) {
  Simulation sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sim.SchedulePeriodic(1.0, nan, [] { return true; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.SchedulePeriodic(1.0, inf, [] { return true; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, RunUntilNanIsNoOp) {
  Simulation sim;
  int fired = 0;
  ASSERT_TRUE(sim.ScheduleAt(1.0, [&] { ++fired; }).ok());
  sim.RunUntil(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), 0.0);
  sim.RunUntil(1.0);
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, StepExecutesOneEvent) {
  Simulation sim;
  int fired = 0;
  ASSERT_TRUE(sim.ScheduleAt(1.0, [&] { ++fired; }).ok());
  ASSERT_TRUE(sim.ScheduleAt(2.0, [&] { ++fired; }).ok());
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 1.0);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// Regression tests for the RunUntil boundary contract: an event at
// exactly `end` fires in that call, exactly once — never dropped, never
// re-run by a subsequent RunUntil.
TEST(SimulationTest, EventExactlyAtEndFiresExactlyOnce) {
  Simulation sim;
  int fired = 0;
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] { ++fired; }).ok());
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 10.0);
  sim.RunUntil(10.0);  // Same horizon again: no double-fire.
  EXPECT_EQ(fired, 1);
  sim.RunUntil(20.0);  // Later horizon: still no double-fire.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulationTest, EventScheduledAtEndDuringRunStillFires) {
  Simulation sim;
  int fired = 0;
  ASSERT_TRUE(sim.ScheduleAt(5.0, [&] {
    (void)sim.ScheduleAt(10.0, [&] { ++fired; });
  }).ok());
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, PeriodicLandingOnEndFiresOnceAndResumes) {
  Simulation sim;
  std::vector<double> fire_times;
  ASSERT_TRUE(sim.SchedulePeriodic(10.0, 10.0, [&] {
    fire_times.push_back(sim.Now());
    return true;
  }).ok());
  sim.RunUntil(30.0);  // Lands exactly on a firing.
  EXPECT_EQ(fire_times, (std::vector<double>{10.0, 20.0, 30.0}));
  sim.RunUntil(50.0);  // Resumes at 40, no repeat of 30.
  EXPECT_EQ(fire_times, (std::vector<double>{10.0, 20.0, 30.0, 40.0, 50.0}));
}

TEST(SimulationTest, RunUntilInPastIsNoOp) {
  Simulation sim;
  sim.RunUntil(10.0);
  int fired = 0;
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] { ++fired; }).ok());
  sim.RunUntil(5.0);  // Horizon before Now(): nothing runs, clock keeps.
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), 10.0);
  sim.RunUntil(10.0);  // The event at Now() is still runnable, once.
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, RunUntilOnEmptyQueueAdvancesClock) {
  Simulation sim;
  sim.RunUntil(42.0);
  EXPECT_EQ(sim.Now(), 42.0);
}

TEST(SimulationTest, PeriodicCallbackIsFreedWhenItStopsRecurring) {
  // The self-rescheduling closure must not keep itself alive through a
  // strong reference cycle: once the callback declines to recur, every
  // capture must be released. Long-lived simulations schedule thousands
  // of periodic tasks; each used to leak its closure.
  Simulation sim;
  auto tracker = std::make_shared<int>(0);
  std::weak_ptr<int> watch = tracker;
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [tracker] {
    return *tracker < 3 && ++*tracker < 3;
  }).ok());
  tracker.reset();
  EXPECT_FALSE(watch.expired());  // The pending event owns the captures.
  sim.RunUntil(10.0);
  EXPECT_TRUE(watch.expired());  // Stopped recurring: closure destroyed.
}

}  // namespace
}  // namespace flower::sim
