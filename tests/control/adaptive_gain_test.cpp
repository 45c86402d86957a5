#include "control/adaptive_gain.h"

#include <gtest/gtest.h>

#include <cmath>

namespace flower::control {
namespace {

AdaptiveGainConfig BaseConfig() {
  AdaptiveGainConfig cfg;
  cfg.reference = 60.0;
  cfg.initial_gain = 0.05;
  cfg.gain_min = 0.01;
  cfg.gain_max = 0.5;
  cfg.gamma = 0.01;
  cfg.limits.min = 1.0;
  cfg.limits.max = 100.0;
  cfg.limits.integer = false;  // Continuous for exact arithmetic checks.
  return cfg;
}

TEST(AdaptiveGainTest, ImplementsEq6AndEq7Exactly) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  // Step 1: y = 80, error = 20. Eq. 7: l = 0.05 + 0.01*20 = 0.25.
  // Eq. 6: u = 10 + 0.25*20 = 15.
  auto u1 = c.Update(0.0, 80.0);
  ASSERT_TRUE(u1.ok());
  EXPECT_NEAR(c.gain(), 0.25, 1e-12);
  EXPECT_NEAR(*u1, 15.0, 1e-12);
  // Step 2: y = 70, error = 10. l = 0.25 + 0.1 = 0.35. u = 15 + 3.5.
  auto u2 = c.Update(60.0, 70.0);
  ASSERT_TRUE(u2.ok());
  EXPECT_NEAR(c.gain(), 0.35, 1e-12);
  EXPECT_NEAR(*u2, 18.5, 1e-12);
}

TEST(AdaptiveGainTest, GainClampedToBounds) {
  AdaptiveGainConfig cfg = BaseConfig();
  AdaptiveGainController c(cfg);
  c.Reset(10.0);
  // Huge persistent error drives the gain to gain_max, not beyond.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.Update(i * 60.0, 100.0).ok());
  }
  EXPECT_DOUBLE_EQ(c.gain(), cfg.gain_max);
  // Now persistent negative error drives it down to gain_min.
  for (int i = 20; i < 200; ++i) {
    ASSERT_TRUE(c.Update(i * 60.0, 0.0).ok());
  }
  EXPECT_DOUBLE_EQ(c.gain(), cfg.gain_min);
}

TEST(AdaptiveGainTest, GainGrowsUnderPersistentError) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(0.0, 80.0).ok());
  double g1 = c.gain();
  ASSERT_TRUE(c.Update(60.0, 80.0).ok());
  double g2 = c.gain();
  EXPECT_GT(g2, g1);  // Memory: the same error compounds the gain.
}

TEST(AdaptiveGainTest, NoMemoryAblationResetsGain) {
  AdaptiveGainConfig cfg = BaseConfig();
  cfg.reset_gain_each_step = true;
  AdaptiveGainController c(cfg);
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(0.0, 80.0).ok());
  double g1 = c.gain();
  ASSERT_TRUE(c.Update(60.0, 80.0).ok());
  EXPECT_DOUBLE_EQ(c.gain(), g1);  // Same error, same (reset) gain.
  EXPECT_EQ(c.name(), "adaptive-gain(no-memory)");
}

TEST(AdaptiveGainTest, ActuatorClampedToLimits) {
  AdaptiveGainConfig cfg = BaseConfig();
  cfg.limits.max = 12.0;
  AdaptiveGainController c(cfg);
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(0.0, 100.0).ok());
  EXPECT_LE(c.current_u(), 12.0);
  cfg = BaseConfig();
  cfg.limits.min = 8.0;
  AdaptiveGainController c2(cfg);
  c2.Reset(10.0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(c2.Update(i * 60.0, 0.0).ok());
  EXPECT_GE(c2.current_u(), 8.0);
}

TEST(AdaptiveGainTest, IntegerLimitsRoundOutput) {
  AdaptiveGainConfig cfg = BaseConfig();
  cfg.limits.integer = true;
  AdaptiveGainController c(cfg);
  c.Reset(10.0);
  auto u = c.Update(0.0, 72.0);  // 10 + l*12, fractional.
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ(*u, std::round(*u));
}

TEST(AdaptiveGainTest, AtReferenceHoldsSteady) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  for (int i = 0; i < 5; ++i) {
    auto u = c.Update(i * 60.0, 60.0);
    ASSERT_TRUE(u.ok());
    EXPECT_DOUBLE_EQ(*u, 10.0);
  }
}

TEST(AdaptiveGainTest, TimeMovingBackwardsRejected) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(100.0, 60.0).ok());
  EXPECT_FALSE(c.Update(50.0, 60.0).ok());
}

TEST(AdaptiveGainTest, ResetRestoresInitialState) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(0.0, 100.0).ok());
  c.Reset(20.0);
  EXPECT_DOUBLE_EQ(c.current_u(), 20.0);
  EXPECT_DOUBLE_EQ(c.gain(), BaseConfig().initial_gain);
}

TEST(AdaptiveGainTest, SetReferenceChangesTarget) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  c.set_reference(40.0);
  EXPECT_DOUBLE_EQ(c.reference(), 40.0);
  auto u = c.Update(0.0, 40.0);
  ASSERT_TRUE(u.ok());
  EXPECT_DOUBLE_EQ(*u, 10.0);  // No error at the new reference.
}

// Regression: a repeated timestamp must not double-apply Eq. 6–7 (the
// old `now < last_time_` guard let a duplicate tick through).
TEST(AdaptiveGainTest, DuplicateTimestampIsIdempotentNoOp) {
  AdaptiveGainController c(BaseConfig());
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(0.0, 80.0).ok());
  auto dup = c.Update(0.0, 80.0);  // Same instant, repeated.
  ASSERT_TRUE(dup.ok());
  EXPECT_NEAR(*dup, 15.0, 1e-12);      // Unchanged output...
  EXPECT_NEAR(c.gain(), 0.25, 1e-12);  // ...and unchanged gain state.
  // The next real step behaves exactly as if no duplicate happened.
  auto u2 = c.Update(60.0, 70.0);
  ASSERT_TRUE(u2.ok());
  EXPECT_NEAR(c.gain(), 0.35, 1e-12);
  EXPECT_NEAR(*u2, 18.5, 1e-12);
  // Time moving backwards is still rejected.
  EXPECT_FALSE(c.Update(30.0, 70.0).ok());
}

TEST(AdaptiveGainTest, ReportsGainAndRawOutputOfEffectiveSteps) {
  AdaptiveGainConfig cfg = BaseConfig();
  cfg.limits.max = 12.0;  // Clamps the first step's raw output of 15.
  AdaptiveGainController c(cfg);
  c.Reset(10.0);
  ASSERT_TRUE(c.Update(0.0, 80.0).ok());
  EXPECT_EQ(c.steps(), 1u);
  EXPECT_NEAR(c.last_gain(), 0.25, 1e-12);
  EXPECT_NEAR(c.last_raw_u(), 15.0, 1e-12);  // Before clamping to 12.
  // Neither a duplicate timestamp nor an error counts as a step.
  ASSERT_TRUE(c.Update(0.0, 50.0).ok());
  EXPECT_FALSE(c.Update(-1.0, 50.0).ok());
  EXPECT_EQ(c.steps(), 1u);
  EXPECT_NEAR(c.last_raw_u(), 15.0, 1e-12);
}

}  // namespace
}  // namespace flower::control
