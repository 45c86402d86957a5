#include "core/controller_factory.h"

#include <gtest/gtest.h>

#include <cmath>

namespace flower::core {
namespace {

control::ActuatorLimits Limits() {
  control::ActuatorLimits l;
  l.min = 1.0;
  l.max = 50.0;
  return l;
}

TEST(ControllerFactoryTest, BuildsEveryKind) {
  for (ControllerKind kind :
       {ControllerKind::kAdaptiveGain, ControllerKind::kAdaptiveGainNoMemory,
        ControllerKind::kFixedGain, ControllerKind::kQuasiAdaptive,
        ControllerKind::kRuleBased, ControllerKind::kTargetTracking,
        ControllerKind::kFeedforward}) {
    auto c = MakeController(kind, 60.0, Limits());
    ASSERT_TRUE(c.ok()) << ControllerKindToString(kind);
    EXPECT_NE((*c).get(), nullptr);
  }
}

TEST(ControllerFactoryTest, NamesMatchKinds) {
  auto adaptive = MakeController(ControllerKind::kAdaptiveGain, 60.0, Limits());
  EXPECT_EQ((*adaptive)->name(), "adaptive-gain");
  auto fixed = MakeController(ControllerKind::kFixedGain, 60.0, Limits());
  EXPECT_EQ((*fixed)->name(), "fixed-gain");
  auto quasi = MakeController(ControllerKind::kQuasiAdaptive, 60.0, Limits());
  EXPECT_EQ((*quasi)->name(), "quasi-adaptive");
  auto rules = MakeController(ControllerKind::kRuleBased, 60.0, Limits());
  EXPECT_EQ((*rules)->name(), "rule-based");
  auto tt = MakeController(ControllerKind::kTargetTracking, 60.0, Limits());
  EXPECT_EQ((*tt)->name(), "target-tracking");
  auto ff = MakeController(ControllerKind::kFeedforward, 60.0, Limits());
  EXPECT_EQ((*ff)->name(), "feedforward");
}

TEST(ControllerFactoryTest, FeedforwardFactoryWiresDriver) {
  auto ff = MakeFeedforwardController(
      60.0, Limits(), [](SimTime) -> Result<double> { return 1234.0; });
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ((*ff)->name(), "feedforward");
  EXPECT_FALSE(
      MakeFeedforwardController(0.0, Limits(), nullptr).ok());
  EXPECT_FALSE(
      MakeFeedforwardController(60.0, Limits(), nullptr, -1.0).ok());
}

TEST(ControllerFactoryTest, ValidatesArguments) {
  EXPECT_FALSE(MakeController(ControllerKind::kAdaptiveGain, 0.0, Limits()).ok());
  EXPECT_FALSE(
      MakeController(ControllerKind::kAdaptiveGain, 100.0, Limits()).ok());
  EXPECT_FALSE(
      MakeController(ControllerKind::kAdaptiveGain, 60.0, Limits(), 0.0).ok());
  control::ActuatorLimits inverted;
  inverted.min = 10.0;
  inverted.max = 1.0;
  EXPECT_FALSE(
      MakeController(ControllerKind::kAdaptiveGain, 60.0, inverted).ok());
}

// NaN compares false, so every range check must be written to fail on it.
TEST(ControllerFactoryTest, RejectsNaNAndInfiniteArguments) {
  const double nan = std::nan("");
  const ControllerKind kind = ControllerKind::kAdaptiveGain;
  EXPECT_FALSE(MakeController(kind, nan, Limits()).ok());
  EXPECT_FALSE(MakeController(kind, 60.0, Limits(), nan).ok());
  EXPECT_FALSE(MakeController(kind, 60.0, Limits(), HUGE_VAL).ok());
  control::ActuatorLimits nan_min = Limits();
  nan_min.min = nan;
  EXPECT_FALSE(MakeController(kind, 60.0, nan_min).ok());
  control::ActuatorLimits nan_max = Limits();
  nan_max.max = nan;
  EXPECT_FALSE(MakeController(kind, 60.0, nan_max).ok());
  EXPECT_FALSE(MakeFeedforwardController(nan, Limits(), nullptr).ok());
  EXPECT_FALSE(MakeFeedforwardController(60.0, Limits(), nullptr, nan).ok());
}

TEST(ControllerFactoryTest, ReferencePropagated) {
  auto c = MakeController(ControllerKind::kAdaptiveGain, 42.0, Limits());
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ((*c)->reference(), 42.0);
}

TEST(ControllerFactoryTest, GainScaleScalesActuationMagnitude) {
  auto small = MakeController(ControllerKind::kAdaptiveGain, 60.0, Limits(),
                              1.0);
  control::ActuatorLimits big_limits;
  big_limits.min = 1.0;
  big_limits.max = 5000.0;
  auto big = MakeController(ControllerKind::kAdaptiveGain, 60.0, big_limits,
                            10.0);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  (*small)->Reset(10.0);
  (*big)->Reset(10.0);
  double u_small = *(*small)->Update(0.0, 90.0);
  double u_big = *(*big)->Update(0.0, 90.0);
  EXPECT_GT(u_big - 10.0, 5.0 * (u_small - 10.0));
}

TEST(ControllerKindStringsTest, RoundTrip) {
  for (ControllerKind kind :
       {ControllerKind::kAdaptiveGain, ControllerKind::kAdaptiveGainNoMemory,
        ControllerKind::kFixedGain, ControllerKind::kQuasiAdaptive,
        ControllerKind::kRuleBased, ControllerKind::kTargetTracking,
        ControllerKind::kFeedforward}) {
    auto parsed = ControllerKindFromString(ControllerKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ControllerKindFromString("bogus").ok());
}

}  // namespace
}  // namespace flower::core
