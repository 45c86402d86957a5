#include "obs/health/anomaly.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace flower::obs::health {
namespace {

// A mildly noisy but stationary signal: deterministic pseudo-noise so
// the detector sees a realistic scale without an RNG in the test.
double Wobble(int i, double base, double amplitude) {
  return base + amplitude * std::sin(0.7 * i) * std::cos(1.3 * i);
}

TEST(AnomalyDetectorTest, NeverFlagsDuringWarmup) {
  AnomalyDetector detector;
  // Wild values during the 8-sample warmup must not flag: the detector
  // has no baseline yet, only the seed window.
  const double wild[] = {0.0, 1000.0, -500.0, 3.0, 700.0, 2.0, -90.0, 40.0};
  for (double x : wild) {
    EXPECT_FALSE(detector.warmed_up());
    auto s = detector.Update(x);
    EXPECT_FALSE(s.spike);
    EXPECT_FALSE(s.shift);
  }
  EXPECT_TRUE(detector.warmed_up());
}

TEST(AnomalyDetectorTest, QuietSignalStaysQuiet) {
  AnomalyDetector detector;
  for (int i = 0; i < 200; ++i) {
    auto s = detector.Update(Wobble(i, 50.0, 1.0));
    EXPECT_FALSE(s.spike) << "sample " << i;
    EXPECT_FALSE(s.shift) << "sample " << i;
  }
  EXPECT_NEAR(detector.mean(), 50.0, 2.0);
}

TEST(AnomalyDetectorTest, FlagsSpikeAndRecoverBaseline) {
  AnomalyDetector detector;
  for (int i = 0; i < 50; ++i) detector.Update(Wobble(i, 50.0, 1.0));
  double mean_before = detector.mean();

  auto s = detector.Update(500.0);
  EXPECT_TRUE(s.spike);
  EXPECT_GT(s.z, 5.0);  // The spike gate.

  // Winsorized update: one outlier nudges the baseline by at most
  // 3 sigma * alpha, so the mean stays close to the true level and the
  // next normal sample is not flagged as a negative spike.
  EXPECT_LT(detector.mean(), mean_before + 10.0);
  auto next = detector.Update(Wobble(51, 50.0, 1.0));
  EXPECT_FALSE(next.spike);
}

TEST(AnomalyDetectorTest, FlagsLevelShiftAndRecenters) {
  AnomalyDetector detector;
  for (int i = 0; i < 60; ++i) detector.Update(Wobble(i, 50.0, 1.0));

  // Step to a moderately higher level: each sample is a few sigma out
  // (not a one-sample spike at the default gate of 5), but Page–Hinkley
  // accumulates the drift and alarms.
  bool shifted = false;
  int alarm_after = -1;
  for (int i = 0; i < 20 && !shifted; ++i) {
    auto s = detector.Update(Wobble(i, 54.0, 1.0));
    shifted = s.shift;
    alarm_after = i;
  }
  EXPECT_TRUE(shifted);
  EXPECT_LE(alarm_after, 15);
  // Recenter-on-alarm: the detector adopts the new level and goes quiet
  // instead of latching the alarm.
  for (int i = 0; i < 30; ++i) {
    auto s = detector.Update(Wobble(100 + i, 54.0, 1.0));
    EXPECT_FALSE(s.shift) << "sample " << i;
  }
}

TEST(AnomalyDetectorTest, ConstantStreamFlagsAnyChange) {
  AnomalyDetector detector;
  for (int i = 0; i < 20; ++i) detector.Update(5.0);
  // Scale bottoms out at min_scale; the first real movement is a spike.
  auto s = detector.Update(5.1);
  EXPECT_TRUE(s.spike);
}

TEST(AnomalyDetectorTest, IgnoresNan) {
  AnomalyDetector detector;
  for (int i = 0; i < 20; ++i) detector.Update(Wobble(i, 50.0, 1.0));
  double mean_before = detector.mean();
  auto s = detector.Update(std::nan(""));
  EXPECT_FALSE(s.spike);
  EXPECT_FALSE(s.shift);
  EXPECT_DOUBLE_EQ(detector.mean(), mean_before);
}

TEST(AnomalyBankTest, RejectsDuplicateWatch) {
  AnomalyBank bank;
  MetricSelector sel{"loop.sensed_y", {{"loop", "storage"}}};
  ASSERT_TRUE(bank.Watch(AnomalyBank::Source::kGauge, sel, "storage").ok());
  // Same stream, labels listed in a different order: still a duplicate.
  EXPECT_FALSE(bank.Watch(AnomalyBank::Source::kGauge, sel, "storage").ok());
  // Same selector as a counter-rate stream is a different watch.
  EXPECT_TRUE(
      bank.Watch(AnomalyBank::Source::kCounterRate, sel, "storage").ok());
  EXPECT_EQ(bank.NumStreams(), 2u);
}

TEST(AnomalyBankTest, GaugeAndCounterRateStreams) {
  MetricsRegistry registry;
  Gauge* y = registry.GetGauge("y", {{"loop", "a"}});
  Counter* fails = registry.GetCounter("fails", {{"loop", "a"}});

  AnomalyBank bank;
  ASSERT_TRUE(
      bank.Watch(AnomalyBank::Source::kGauge, {"y", {{"loop", "a"}}}, "a")
          .ok());
  ASSERT_TRUE(bank.Watch(AnomalyBank::Source::kCounterRate,
                         {"fails", {{"loop", "a"}}}, "a")
                  .ok());

  // Steady state: gauge wobbles, counter never moves (rate 0).
  SimTime t = 0.0;
  for (int i = 0; i < 40; ++i) {
    y->Set(Wobble(i, 50.0, 1.0));
    auto events = bank.UpdateAll(t += 60.0, registry.Snapshot());
    EXPECT_TRUE(events.empty()) << "tick " << i;
  }

  // The counter jumps: the rate stream spikes; the gauge stays quiet.
  fails->Increment(50);
  auto events = bank.UpdateAll(t += 60.0, registry.Snapshot());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, AnomalyKind::kSpike);
  EXPECT_NE(events[0].stream.find("fails"), std::string::npos);
  EXPECT_EQ(events[0].layer, "a");
  EXPECT_DOUBLE_EQ(events[0].value, 50.0);

  auto states = bank.States();
  ASSERT_EQ(states.size(), 2u);
  EXPECT_FALSE(states[0].anomalous);  // Gauge stream, registration order.
  EXPECT_TRUE(states[1].anomalous);
}

TEST(AnomalyBankTest, MissingInstrumentSkipsTheTick) {
  AnomalyBank bank;
  ASSERT_TRUE(
      bank.Watch(AnomalyBank::Source::kGauge, {"ghost", {}}, "").ok());
  MetricsRegistry registry;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bank.UpdateAll(60.0 * i, registry.Snapshot()).empty());
  }
  EXPECT_FALSE(bank.States()[0].anomalous);
}

}  // namespace
}  // namespace flower::obs::health
