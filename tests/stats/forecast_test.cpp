#include "stats/forecast.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/units.h"

namespace flower::stats {
namespace {

TEST(NaiveForecasterTest, RepeatsLastValue) {
  NaiveForecaster f;
  EXPECT_FALSE(f.Forecast(60.0).ok());
  f.Observe(0.0, 5.0);
  f.Observe(60.0, 7.0);
  EXPECT_DOUBLE_EQ(*f.Forecast(60.0), 7.0);
  EXPECT_DOUBLE_EQ(*f.Forecast(3600.0), 7.0);
}

TEST(EmaForecasterTest, SmoothsTowardsRecentValues) {
  EmaForecaster f(0.5);
  EXPECT_FALSE(f.Forecast(60.0).ok());
  f.Observe(0.0, 0.0);
  f.Observe(60.0, 10.0);
  EXPECT_DOUBLE_EQ(*f.Forecast(60.0), 5.0);
  f.Observe(120.0, 10.0);
  EXPECT_DOUBLE_EQ(*f.Forecast(60.0), 7.5);
}

TEST(HoltForecasterTest, ExtrapolatesLinearTrend) {
  HoltForecaster f(0.8, 0.8);
  // Ramp: value = 2 * t / 60.
  for (int i = 0; i < 50; ++i) {
    f.Observe(60.0 * i, 2.0 * i);
  }
  // One step ahead should be close to 2 * 50 = 100.
  auto next = f.Forecast(60.0);
  ASSERT_TRUE(next.ok());
  EXPECT_NEAR(*next, 100.0, 2.0);
  // Five steps ahead ~108.
  EXPECT_NEAR(*f.Forecast(300.0), 108.0, 4.0);
}

TEST(HoltForecasterTest, NeedsTwoObservations) {
  HoltForecaster f(0.5, 0.5);
  f.Observe(0.0, 1.0);
  EXPECT_FALSE(f.Forecast(60.0).ok());
  f.Observe(60.0, 2.0);
  EXPECT_TRUE(f.Forecast(60.0).ok());
}

TEST(SeasonalNaiveForecasterTest, RepeatsLastSeason) {
  // Season of 4 samples at 60 s cadence.
  SeasonalNaiveForecaster f(240.0, 60.0);
  EXPECT_FALSE(f.Forecast(60.0).ok());  // Less than one season.
  double season[4] = {10.0, 20.0, 30.0, 40.0};
  for (int i = 0; i < 4; ++i) f.Observe(60.0 * i, season[i]);
  // Forecast h=60 (one slot ahead): one season ago that slot held 10...
  // history back = [10,20,30,40]; slot index 1 % 4 -> history_[1] = 20?
  // The contract: Forecast(h) returns the value observed season-h
  // before. Verify periodic consistency instead of a fixed slot:
  auto f1 = f.Forecast(60.0);
  auto f4 = f.Forecast(240.0 + 60.0);  // One full season later: same slot.
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f4.ok());
  EXPECT_DOUBLE_EQ(*f1, *f4);
}

TEST(SeasonalNaiveForecasterTest, TracksPeriodicSignalExactly) {
  const double period = kDay;
  const double step = kHour;
  SeasonalNaiveForecaster f(period, step);
  auto signal = [&](double t) {
    return 100.0 + 50.0 * std::sin(2.0 * M_PI * t / period);
  };
  // Feed two full seasons; afterwards every one-step forecast must be
  // exact because the signal is perfectly periodic.
  double t = 0.0;
  for (; t < 2.0 * period; t += step) f.Observe(t, signal(t));
  for (int i = 0; i < 24; ++i) {
    auto pred = f.Forecast(step);
    ASSERT_TRUE(pred.ok());
    EXPECT_NEAR(*pred, signal(t), 1e-9);
    f.Observe(t, signal(t));
    t += step;
  }
}

TEST(BacktestTest, SeasonalBeatsNaiveOnDiurnalSignal) {
  TimeSeries series;
  Rng rng(3);
  const double step = 10.0 * kMinute;
  for (double t = 0.0; t < 5.0 * kDay; t += step) {
    double v = 1000.0 + 600.0 * std::sin(2.0 * M_PI * t / kDay) +
               rng.Normal(0.0, 20.0);
    series.AppendUnchecked(t, v);
  }
  NaiveForecaster naive;
  SeasonalNaiveForecaster seasonal(kDay, step);
  auto mae_naive = BacktestOneStepMae(&naive, series);
  auto mae_seasonal = BacktestOneStepMae(&seasonal, series);
  ASSERT_TRUE(mae_naive.ok());
  ASSERT_TRUE(mae_seasonal.ok());
  EXPECT_LT(*mae_seasonal, *mae_naive);
}

TEST(BacktestTest, HoltBeatsNaiveOnTrendingSignal) {
  TimeSeries series;
  for (int i = 0; i < 200; ++i) {
    series.AppendUnchecked(60.0 * i, 100.0 + 5.0 * i);
  }
  NaiveForecaster naive;
  HoltForecaster holt(0.5, 0.3);
  auto mae_naive = BacktestOneStepMae(&naive, series);
  auto mae_holt = BacktestOneStepMae(&holt, series);
  ASSERT_TRUE(mae_naive.ok());
  ASSERT_TRUE(mae_holt.ok());
  EXPECT_LT(*mae_holt, *mae_naive);
}

TEST(BacktestTest, RejectsTinySeries) {
  TimeSeries series;
  series.AppendUnchecked(0.0, 1.0);
  series.AppendUnchecked(1.0, 2.0);
  NaiveForecaster naive;
  EXPECT_FALSE(BacktestOneStepMae(&naive, series).ok());
}

}  // namespace
}  // namespace flower::stats
