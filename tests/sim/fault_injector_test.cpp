#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace flower::sim {
namespace {

Status OkActuator(double) { return Status::OK(); }

TEST(FaultInjectorTest, AddValidation) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  obs::FaultSpec bad;
  bad.start = 100.0;
  bad.end = 100.0;  // Empty window.
  EXPECT_FALSE(chaos.Add(bad).ok());
  bad.end = 50.0;  // Inverted window.
  EXPECT_FALSE(chaos.Add(bad).ok());
  bad.end = 200.0;
  bad.probability = 1.5;
  EXPECT_FALSE(chaos.Add(bad).ok());
  bad.probability = 0.5;
  bad.delay_sec = -1.0;
  EXPECT_FALSE(chaos.Add(bad).ok());
  bad.delay_sec = 0.0;
  EXPECT_TRUE(chaos.Add(bad).ok());
  EXPECT_EQ(chaos.fault_count(), 1u);
}

// Every field check fails on NaN; only `end` may be infinite.
TEST(FaultInjectorTest, AddRejectsNonFiniteFields) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  using Edit = std::function<void(obs::FaultSpec*)>;
  const std::vector<std::pair<const char*, Edit>> cases = {
      {"start nan", [&](obs::FaultSpec* f) { f->start = kNaN; }},
      {"start -inf", [&](obs::FaultSpec* f) { f->start = -kInf; }},
      {"end nan", [&](obs::FaultSpec* f) { f->end = kNaN; }},
      {"probability nan", [&](obs::FaultSpec* f) { f->probability = kNaN; }},
      {"delay nan", [&](obs::FaultSpec* f) { f->delay_sec = kNaN; }},
      {"delay inf", [&](obs::FaultSpec* f) { f->delay_sec = kInf; }},
      {"factor inf", [&](obs::FaultSpec* f) { f->factor = kInf; }},
      {"factor nan", [&](obs::FaultSpec* f) { f->factor = kNaN; }},
      {"offset nan", [&](obs::FaultSpec* f) { f->offset = kNaN; }},
  };
  for (const auto& [what, edit] : cases) {
    obs::FaultSpec spec;
    edit(&spec);
    Result<int> id = chaos.Add(spec);
    ASSERT_FALSE(id.ok()) << what;
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument) << what;
  }
  obs::FaultSpec forever;  // end defaults to infinity.
  EXPECT_TRUE(chaos.Add(forever).ok());
  EXPECT_EQ(chaos.fault_count(), 1u);
}

// A loop's reads lag by at most the longest live metric-delay fault
// that targets it or every loop.
TEST(FaultInjectorTest, MaxDelaySecCoversTargetedAndUntargetedDelays) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  EXPECT_EQ(chaos.MaxDelaySec("analytics"), 0.0);
  chaos.DelayMetrics("analytics", 0.0, 100.0, 90.0);
  chaos.DelayMetrics("", 200.0, 300.0, 45.0);
  chaos.SpikeSensor("storage", 0.0, 100.0, 2.0);
  chaos.Clear(chaos.DelayMetrics("storage", 0.0, 100.0, 500.0));
  EXPECT_EQ(chaos.MaxDelaySec("analytics"), 90.0);
  EXPECT_EQ(chaos.MaxDelaySec("storage"), 45.0);
  EXPECT_EQ(chaos.MaxDelaySec("ingestion"), 45.0);
}

TEST(FaultInjectorTest, ActuatorFailsOnlyInsideWindow) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.FailActuator("analytics", 100.0, 200.0);
  auto actuator = chaos.WrapActuator("analytics", OkActuator);
  std::vector<StatusCode> codes;
  for (SimTime t : {50.0, 100.0, 150.0, 199.0, 200.0, 250.0}) {
    ASSERT_TRUE(
        sim.ScheduleAt(t, [&] { codes.push_back(actuator(1.0).code()); })
            .ok());
  }
  sim.RunUntil(300.0);
  // [start, end): fails at 100 and 199, passes at 50, 200, 250.
  EXPECT_EQ(codes, (std::vector<StatusCode>{
                       StatusCode::kOk, StatusCode::kInternal,
                       StatusCode::kInternal, StatusCode::kInternal,
                       StatusCode::kOk, StatusCode::kOk}));
  EXPECT_EQ(chaos.stats().actuator_failures, 3u);
}

TEST(FaultInjectorTest, ThrottleReturnsRetryableStatus) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.ThrottleActuator("ingestion", 0.0, 100.0);
  auto actuator = chaos.WrapActuator("ingestion", OkActuator);
  Status st = Status::OK();
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] { st = actuator(2.0); }).ok());
  sim.RunUntil(20.0);
  EXPECT_EQ(st.code(), StatusCode::kThrottled);
  EXPECT_TRUE(st.IsRetryable());
  EXPECT_EQ(chaos.stats().actuator_throttles, 1u);
}

TEST(FaultInjectorTest, TargetingMatchesNameOrAll) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.FailActuator("analytics", 0.0, 100.0);
  auto analytics = chaos.WrapActuator("analytics", OkActuator);
  auto storage = chaos.WrapActuator("storage", OkActuator);
  Status sa = Status::OK(), ss = Status::OK();
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] {
    sa = analytics(1.0);
    ss = storage(1.0);
  }).ok());
  sim.RunUntil(20.0);
  EXPECT_FALSE(sa.ok());
  EXPECT_TRUE(ss.ok());  // Different target untouched.

  // An empty target hits every wrapped seam.
  chaos.FailActuator("", 0.0, 100.0);
  ASSERT_TRUE(sim.ScheduleAt(30.0, [&] { ss = storage(1.0); }).ok());
  sim.RunUntil(40.0);
  EXPECT_FALSE(ss.ok());
}

TEST(FaultInjectorTest, MetricGapHidesInnerSensor) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.DropMetrics("analytics", 50.0, 150.0);
  int inner_calls = 0;
  auto sensor = chaos.WrapSensor(
      "analytics", [&](SimTime) -> Result<double> {
        ++inner_calls;
        return 42.0;
      });
  Result<double> in_window = 0.0, outside = 0.0;
  ASSERT_TRUE(sim.ScheduleAt(100.0, [&] { in_window = sensor(100.0); }).ok());
  ASSERT_TRUE(sim.ScheduleAt(200.0, [&] { outside = sensor(200.0); }).ok());
  sim.RunUntil(300.0);
  EXPECT_EQ(in_window.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*outside, 42.0);
  EXPECT_EQ(inner_calls, 1);  // The gap short-circuits the inner read.
  EXPECT_EQ(chaos.stats().metric_gaps, 1u);
}

TEST(FaultInjectorTest, MetricDelayShiftsQueryTime) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.DelayMetrics("analytics", 0.0, 1000.0, 90.0);
  SimTime seen = -1.0;
  auto sensor = chaos.WrapSensor("analytics", [&](SimTime t) -> Result<double> {
    seen = t;
    return 1.0;
  });
  ASSERT_TRUE(sim.ScheduleAt(500.0, [&] { (void)sensor(500.0); }).ok());
  sim.RunUntil(600.0);
  EXPECT_DOUBLE_EQ(seen, 410.0);  // Read observes the store 90 s back.
  EXPECT_EQ(chaos.stats().delayed_reads, 1u);
}

TEST(FaultInjectorTest, SensorSpikeDistortsValue) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.SpikeSensor("analytics", 0.0, 100.0, 3.0, 7.0);
  auto sensor = chaos.WrapSensor(
      "analytics", [](SimTime) -> Result<double> { return 10.0; });
  Result<double> r = 0.0;
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] { r = sensor(10.0); }).ok());
  sim.RunUntil(20.0);
  EXPECT_DOUBLE_EQ(*r, 37.0);  // 10 * 3 + 7.
  EXPECT_EQ(chaos.stats().sensor_spikes, 1u);
}

TEST(FaultInjectorTest, SpikeDoesNotMaskSensorErrors) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.SpikeSensor("analytics", 0.0, 100.0, 3.0);
  auto sensor = chaos.WrapSensor("analytics", [](SimTime) -> Result<double> {
    return Status::NotFound("empty window");
  });
  Result<double> r = 0.0;
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] { r = sensor(10.0); }).ok());
  sim.RunUntil(20.0);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(chaos.stats().sensor_spikes, 0u);
}

TEST(FaultInjectorTest, TransientFaultIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Simulation sim;
    FaultInjector chaos(&sim, seed);
    chaos.FailActuator("a", 0.0, 1e6, 0.5);
    auto actuator = chaos.WrapActuator("a", OkActuator);
    std::vector<bool> outcomes;
    EXPECT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
      outcomes.push_back(actuator(1.0).ok());
      return outcomes.size() < 200;
    }).ok());
    sim.RunUntil(300.0);
    return outcomes;
  };
  std::vector<bool> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);  // Same seed: bit-identical outcome sequence.
  EXPECT_NE(a, c);  // Different seed: a different draw sequence.
  // p = 0.5 over 200 draws: both outcomes occur in force.
  int failures = 0;
  for (bool ok : a) failures += ok ? 0 : 1;
  EXPECT_GT(failures, 60);
  EXPECT_LT(failures, 140);
}

TEST(FaultInjectorTest, ClearDeactivatesFault) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  int id = chaos.FailActuator("a", 0.0, 1e9);
  chaos.DropMetrics("a", 0.0, 1e9);
  EXPECT_EQ(chaos.fault_count(), 2u);
  auto actuator = chaos.WrapActuator("a", OkActuator);
  Status st = Status::OK();
  ASSERT_TRUE(sim.ScheduleAt(10.0, [&] { st = actuator(1.0); }).ok());
  sim.RunUntil(20.0);
  EXPECT_FALSE(st.ok());
  chaos.Clear(id);
  EXPECT_EQ(chaos.fault_count(), 1u);
  ASSERT_TRUE(sim.ScheduleAt(30.0, [&] { st = actuator(1.0); }).ok());
  sim.RunUntil(40.0);
  EXPECT_TRUE(st.ok());
  chaos.ClearAll();
  EXPECT_EQ(chaos.fault_count(), 0u);
}

TEST(FaultInjectorTest, ActiveReportsWindows) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  chaos.FailActuator("a", 100.0, 200.0);
  EXPECT_FALSE(chaos.Active(obs::FaultKind::kActuatorFailure, "a", 99.0));
  EXPECT_TRUE(chaos.Active(obs::FaultKind::kActuatorFailure, "a", 100.0));
  EXPECT_TRUE(chaos.Active(obs::FaultKind::kActuatorFailure, "a", 199.9));
  EXPECT_FALSE(chaos.Active(obs::FaultKind::kActuatorFailure, "a", 200.0));
  EXPECT_FALSE(chaos.Active(obs::FaultKind::kMetricGap, "a", 150.0));
  EXPECT_FALSE(chaos.Active(obs::FaultKind::kActuatorFailure, "b", 150.0));
}

TEST(FaultInjectorTest, PersistentFaultLastsUntilCleared) {
  Simulation sim;
  FaultInjector chaos(&sim, 1);
  obs::FaultSpec spec;
  spec.kind = obs::FaultKind::kActuatorFailure;
  spec.target = "a";
  spec.start = 0.0;  // end defaults to infinity.
  auto id = chaos.Add(spec);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(chaos.Active(obs::FaultKind::kActuatorFailure, "a", 1e12));
  chaos.Clear(*id);
  EXPECT_FALSE(chaos.Active(obs::FaultKind::kActuatorFailure, "a", 1e12));
}

}  // namespace
}  // namespace flower::sim
