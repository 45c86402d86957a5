#include "control/controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/controller_factory.h"

namespace flower::control {
namespace {

using core::ControllerKind;

// The step clock lives in Controller::Update, once for every law. Each
// kind runs twice on one measurement sequence, and one copy also sees a
// duplicate tick (with a different y) after every step: the duplicate
// must return current_u(), leave steps() alone, and leave the next
// fresh tick's output equal to the copy's that saw no duplicate. Time
// moving backwards is InvalidArgument and changes nothing; Reset
// restarts the clock.
TEST(ControllerClockTest, EveryLawRejectsBackwardsTimeAndIgnoresDuplicates) {
  ActuatorLimits limits;
  limits.min = 1.0;
  limits.max = 50.0;
  // Swings past every law's thresholds, breach counts and cooldowns.
  const double ys[] = {90.0, 95.0, 85.0, 40.0, 20.0, 30.0, 70.0, 60.0};
  for (ControllerKind kind :
       {ControllerKind::kAdaptiveGain, ControllerKind::kAdaptiveGainNoMemory,
        ControllerKind::kFixedGain, ControllerKind::kQuasiAdaptive,
        ControllerKind::kRuleBased, ControllerKind::kTargetTracking,
        ControllerKind::kFeedforward}) {
    SCOPED_TRACE(core::ControllerKindToString(kind));
    auto with_dups = core::MakeController(kind, 60.0, limits);
    auto plain = core::MakeController(kind, 60.0, limits);
    ASSERT_TRUE(with_dups.ok() && plain.ok());
    Controller& a = **with_dups;
    Controller& b = **plain;
    a.Reset(10.0);
    b.Reset(10.0);
    SimTime t = 0.0;
    for (double y : ys) {
      auto ua = a.Update(t, y);
      auto ub = b.Update(t, y);
      ASSERT_TRUE(ua.ok() && ub.ok());
      EXPECT_EQ(*ua, *ub);
      EXPECT_EQ(a.steps(), b.steps());
      EXPECT_EQ(a.last_raw_u(), b.last_raw_u());
      auto dup = a.Update(t, y + 25.0);
      ASSERT_TRUE(dup.ok());
      EXPECT_EQ(*dup, a.current_u());
      EXPECT_EQ(*dup, *ub);
      EXPECT_EQ(a.steps(), b.steps());
      t += 120.0;
    }
    EXPECT_EQ(a.steps(), 8u);

    const double u = a.current_u();
    auto back = a.Update(t - 121.0, 50.0);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(back.status().message(), a.name() + ": time moved backwards");
    EXPECT_EQ(a.steps(), 8u);
    EXPECT_EQ(a.current_u(), u);

    a.Reset(10.0);
    EXPECT_TRUE(a.Update(0.0, 60.0).ok());
    EXPECT_EQ(a.steps(), 9u);
  }
}

}  // namespace
}  // namespace flower::control
