#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cmath>

namespace flower::workload {
namespace {

TEST(ConstantArrivalTest, RateIsConstant) {
  ConstantArrival a(250.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(0.0), 250.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(1e6), 250.0);
}

TEST(DiurnalArrivalTest, OscillatesAroundBase) {
  DiurnalArrival a(1000.0, 500.0, kDay);
  EXPECT_NEAR(a.RatePerSec(0.0), 1000.0, 1e-9);
  EXPECT_NEAR(a.RatePerSec(kDay / 4.0), 1500.0, 1e-9);   // Peak.
  EXPECT_NEAR(a.RatePerSec(3.0 * kDay / 4.0), 500.0, 1e-9);  // Trough.
  EXPECT_NEAR(a.RatePerSec(kDay), 1000.0, 1e-6);
}

TEST(DiurnalArrivalTest, NeverNegative) {
  DiurnalArrival a(100.0, 500.0);  // Amplitude exceeds base.
  for (double t = 0.0; t < kDay; t += 997.0) {
    EXPECT_GE(a.RatePerSec(t), 0.0);
  }
}

TEST(FlashCrowdArrivalTest, SpikeShape) {
  FlashCrowdArrival a(100.0, 900.0, 1000.0, 600.0, 100.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(0.0), 100.0);        // Before ramp.
  EXPECT_DOUBLE_EQ(a.RatePerSec(950.0), 550.0);      // Mid ramp-up.
  EXPECT_DOUBLE_EQ(a.RatePerSec(1000.0), 1000.0);    // Plateau start.
  EXPECT_DOUBLE_EQ(a.RatePerSec(1500.0), 1000.0);    // On plateau.
  EXPECT_DOUBLE_EQ(a.RatePerSec(1650.0), 550.0);     // Mid ramp-down.
  EXPECT_DOUBLE_EQ(a.RatePerSec(2000.0), 100.0);     // After.
}

TEST(StepArrivalTest, PiecewiseConstant) {
  StepArrival a({{100.0, 50.0}, {0.0, 10.0}, {200.0, 0.0}});  // Unsorted.
  EXPECT_DOUBLE_EQ(a.RatePerSec(-1.0), 0.0);  // Before first step.
  EXPECT_DOUBLE_EQ(a.RatePerSec(0.0), 10.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(99.0), 10.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(100.0), 50.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(500.0), 0.0);
}

TEST(CompositeArrivalTest, SumsComponents) {
  CompositeArrival c;
  c.Add(std::make_shared<ConstantArrival>(100.0));
  c.Add(std::make_shared<ConstantArrival>(50.0));
  EXPECT_DOUBLE_EQ(c.RatePerSec(0.0), 150.0);
  EXPECT_EQ(c.size(), 2u);
}

TEST(CompositeArrivalTest, EmptyIsZero) {
  CompositeArrival c;
  EXPECT_DOUBLE_EQ(c.RatePerSec(42.0), 0.0);
}

TEST(MmppArrivalTest, SwitchesBetweenTwoRates) {
  MmppArrival a(100.0, 1000.0, 300.0, 300.0, 36000.0, 7);
  bool saw_low = false, saw_high = false;
  for (double t = 0.0; t < 36000.0; t += 50.0) {
    double r = a.RatePerSec(t);
    EXPECT_TRUE(r == 100.0 || r == 1000.0);
    saw_low |= r == 100.0;
    saw_high |= r == 1000.0;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(MmppArrivalTest, DeterministicForSeed) {
  MmppArrival a(1.0, 2.0, 100.0, 100.0, 10000.0, 5);
  MmppArrival b(1.0, 2.0, 100.0, 100.0, 10000.0, 5);
  for (double t = 0.0; t < 10000.0; t += 111.0) {
    EXPECT_DOUBLE_EQ(a.RatePerSec(t), b.RatePerSec(t));
  }
}

TEST(MmppArrivalTest, StartsLow) {
  MmppArrival a(5.0, 50.0, 1000.0, 1000.0, 5000.0, 3);
  EXPECT_DOUBLE_EQ(a.RatePerSec(0.0), 5.0);
}

TEST(TraceArrivalTest, ReplaysWithHold) {
  TimeSeries trace;
  trace.AppendUnchecked(0.0, 100.0);
  trace.AppendUnchecked(600.0, 400.0);
  TraceArrival a(std::move(trace));
  EXPECT_DOUBLE_EQ(a.RatePerSec(0.0), 100.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(599.0), 100.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(600.0), 400.0);
  EXPECT_DOUBLE_EQ(a.RatePerSec(-10.0), 0.0);  // Before trace: 0.
}

TEST(TraceArrivalTest, NegativeTraceValuesClampedToZero) {
  TimeSeries trace;
  trace.AppendUnchecked(0.0, -50.0);
  TraceArrival a(std::move(trace));
  EXPECT_DOUBLE_EQ(a.RatePerSec(10.0), 0.0);
}

}  // namespace
}  // namespace flower::workload
