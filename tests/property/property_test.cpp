// Parameterized property suites: invariants that must hold across a
// sweep of configurations, not just hand-picked examples.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/random.h"
#include "common/reservoir.h"
#include "common/units.h"
#include "core/controller_factory.h"
#include "core/resource_share.h"
#include "core/windowed_share.h"
#include "stats/forecast.h"
#include "dynamodb/table.h"
#include "flow/sliding_window.h"
#include "kinesis/stream.h"
#include "opt/grid_search.h"
#include "opt/nsga2.h"
#include "opt/pareto.h"
#include "stats/descriptive.h"

namespace flower {
namespace {

// "<prefix><value>", built by appending: GCC 12 misreads the insert
// behind `"literal" + std::string` as an overlapping copy (-Wrestrict)
// in optimized builds.
std::string ParamName(const char* prefix, int value) {
  std::string name = prefix;
  name += std::to_string(value);
  return name;
}

// ---------------------------------------------------------------------
// Property: every controller family, across demand levels, eventually
// drives a delay-free utilization plant into a stable neighbourhood of
// the reference, and never leaves the actuator limits.
// ---------------------------------------------------------------------

using ControllerPlantParam = std::tuple<core::ControllerKind, double>;

class ControllerPlantProperty
    : public ::testing::TestWithParam<ControllerPlantParam> {};

TEST_P(ControllerPlantProperty, ConvergesAndRespectsLimits) {
  auto [kind, demand] = GetParam();
  control::ActuatorLimits limits;
  limits.min = 1.0;
  limits.max = 400.0;
  auto controller = core::MakeController(kind, 60.0, limits);
  ASSERT_TRUE(controller.ok());
  (*controller)->Reset(10.0);
  // Plant: y = 100 * demand / (u * 100), clipped to [0, 100].
  double u = 10.0;
  double y_final = 0.0;
  for (int k = 0; k < 400; ++k) {
    double y = std::min(100.0, demand / u);
    y_final = y;
    auto next = (*controller)->Update(60.0 * k, y);
    ASSERT_TRUE(next.ok());
    EXPECT_GE(*next, limits.min);
    EXPECT_LE(*next, limits.max);
    u = *next;
  }
  // u* = demand / 60; integer actuators can sit one unit off, so accept
  // the band implied by +/-1.5 units around u*.
  double u_star = demand / 60.0;
  double tolerance =
      std::max(25.0, 100.0 * 1.5 / std::max(1.0, u_star));
  EXPECT_NEAR(y_final, 60.0, tolerance)
      << core::ControllerKindToString(kind) << " demand=" << demand;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAcrossDemands, ControllerPlantProperty,
    ::testing::Combine(
        ::testing::Values(core::ControllerKind::kAdaptiveGain,
                          core::ControllerKind::kAdaptiveGainNoMemory,
                          core::ControllerKind::kFixedGain,
                          core::ControllerKind::kQuasiAdaptive,
                          core::ControllerKind::kTargetTracking),
        ::testing::Values(500.0, 2000.0, 12000.0)),
    [](const ::testing::TestParamInfo<ControllerPlantParam>& info) {
      std::string name = core::ControllerKindToString(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '(' || c == ')') c = '_';
      }
      return name + "_d" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------
// Property: steady-state resource usage is monotone in demand for every
// integral-control family (more load never ends with fewer resources).
// ---------------------------------------------------------------------

class ControllerMonotonicityProperty
    : public ::testing::TestWithParam<core::ControllerKind> {};

TEST_P(ControllerMonotonicityProperty, MoreDemandMoreResources) {
  core::ControllerKind kind = GetParam();
  auto run = [&](double demand) {
    control::ActuatorLimits limits;
    limits.min = 1.0;
    limits.max = 400.0;
    auto controller = core::MakeController(kind, 60.0, limits);
    EXPECT_TRUE(controller.ok());
    (*controller)->Reset(5.0);
    double u = 5.0;
    for (int k = 0; k < 300; ++k) {
      double y = std::min(100.0, demand / u);
      auto next = (*controller)->Update(60.0 * k, y);
      EXPECT_TRUE(next.ok());
      u = *next;
    }
    return u;
  };
  double u_low = run(1000.0);
  double u_mid = run(4000.0);
  double u_high = run(16000.0);
  EXPECT_LE(u_low, u_mid) << core::ControllerKindToString(kind);
  EXPECT_LE(u_mid, u_high) << core::ControllerKindToString(kind);
}

INSTANTIATE_TEST_SUITE_P(
    IntegralFamilies, ControllerMonotonicityProperty,
    ::testing::Values(core::ControllerKind::kAdaptiveGain,
                      core::ControllerKind::kFixedGain,
                      core::ControllerKind::kQuasiAdaptive,
                      core::ControllerKind::kTargetTracking),
    [](const ::testing::TestParamInfo<core::ControllerKind>& info) {
      std::string name = core::ControllerKindToString(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Property: Kinesis never admits more than the provisioned write rate
// plus the initial token bank, for any shard count and offered load.
// ---------------------------------------------------------------------

using KinesisParam = std::tuple<int, double>;  // (shards, overload factor)

class KinesisAdmissionProperty
    : public ::testing::TestWithParam<KinesisParam> {};

TEST_P(KinesisAdmissionProperty, NeverExceedsProvisionedRate) {
  auto [shards, factor] = GetParam();
  sim::Simulation sim;
  kinesis::StreamConfig cfg;
  cfg.initial_shards = shards;
  cfg.max_shards = 64;
  kinesis::Stream stream(&sim, nullptr, cfg);
  double capacity = shards * kKinesisShardWriteRecordsPerSec;
  double offered_per_sec = capacity * factor;
  const double kDur = 30.0;
  Rng rng(11);
  uint64_t offered = 0;
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    auto n = static_cast<int64_t>(offered_per_sec);
    for (int64_t i = 0; i < n; ++i) {
      kinesis::Record r;
      r.partition_key = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
      r.size_bytes = 64;
      ++offered;
      (void)stream.PutRecord(r);
    }
    return sim.Now() < kDur;
  }).ok());
  sim.RunUntil(kDur);
  // Admission bound: rate * duration + one bucket of banked tokens.
  double bound = capacity * kDur + capacity;
  EXPECT_LE(static_cast<double>(stream.total_incoming()), bound * 1.001);
  if (factor <= 0.8) {
    // Under capacity nothing may throttle.
    EXPECT_EQ(stream.total_throttled(), 0u);
    EXPECT_EQ(stream.total_incoming(), offered);
  } else if (factor >= 1.5) {
    EXPECT_GT(stream.total_throttled(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndLoadSweep, KinesisAdmissionProperty,
    ::testing::Combine(::testing::Values(1, 2, 8),
                       ::testing::Values(0.5, 0.8, 1.5, 3.0)),
    [](const ::testing::TestParamInfo<KinesisParam>& info) {
      return ParamName("s", std::get<0>(info.param))
          .append(ParamName(
              "_x", static_cast<int>(std::get<1>(info.param) * 10.0)));
    });

// ---------------------------------------------------------------------
// Property: DynamoDB admission over any run never exceeds provisioned
// rate x time + the burst bank, for any capacity/burst setting.
// ---------------------------------------------------------------------

using DynamoParam = std::tuple<double, double>;  // (wcu, burst window)

class DynamoAdmissionProperty : public ::testing::TestWithParam<DynamoParam> {
};

TEST_P(DynamoAdmissionProperty, RespectsCapacityContract) {
  auto [wcu, burst] = GetParam();
  sim::Simulation sim;
  dynamodb::TableConfig cfg;
  cfg.initial_wcu = wcu;
  cfg.burst_window_sec = burst;
  dynamodb::Table table(&sim, nullptr, cfg);
  const double kDur = 20.0;
  int64_t key = 0;
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    for (int i = 0; i < 1000; ++i) {
      (void)table.PutItem(key++, 1.0, 100);  // 1 WCU each.
    }
    return sim.Now() < kDur;
  }).ok());
  sim.RunUntil(kDur);
  double bound = wcu * kDur + wcu * burst;
  EXPECT_LE(static_cast<double>(table.total_writes()), bound * 1.001);
  EXPECT_GT(table.total_throttled_writes(), 0u);  // 1000/s >> any cfg.
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndBurstSweep, DynamoAdmissionProperty,
    ::testing::Combine(::testing::Values(5.0, 50.0, 200.0),
                       ::testing::Values(1.0, 30.0, 300.0)),
    [](const ::testing::TestParamInfo<DynamoParam>& info) {
      return ParamName("w", static_cast<int>(std::get<0>(info.param)))
          .append(ParamName("_b", static_cast<int>(std::get<1>(info.param))));
    });

// ---------------------------------------------------------------------
// Property: for any seed, NSGA-II returns a mutually non-dominated,
// feasible front on the Fig.-4-style provisioning problem, and the
// run is reproducible.
// ---------------------------------------------------------------------

class Nsga2SeedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Nsga2SeedProperty, FrontIsValidAndReproducible) {
  core::ResourceShareRequest req;
  req.hourly_budget_usd = 1.0;
  req.bounds[0] = {1.0, 30.0};
  req.bounds[1] = {1.0, 15.0};
  req.bounds[2] = {1.0, 300.0};
  req.constraints.push_back(core::LinearConstraint::AtLeast(
      core::Layer::kAnalytics, 5.0, core::Layer::kIngestion, 1.0));
  core::ShareProblem problem(req);

  opt::Nsga2Config cfg;
  cfg.population_size = 60;
  cfg.generations = 60;
  cfg.seed = GetParam();
  auto res1 = opt::Nsga2(cfg).Solve(problem);
  auto res2 = opt::Nsga2(cfg).Solve(problem);
  ASSERT_TRUE(res1.ok());
  ASSERT_TRUE(res2.ok());
  ASSERT_FALSE(res1->pareto_front.empty());

  // Reproducibility.
  ASSERT_EQ(res1->pareto_front.size(), res2->pareto_front.size());
  for (size_t i = 0; i < res1->pareto_front.size(); ++i) {
    EXPECT_EQ(res1->pareto_front[i].x, res2->pareto_front[i].x);
  }
  // Feasibility + mutual non-domination.
  for (const opt::Solution& s : res1->pareto_front) {
    std::vector<double> obj, viol;
    problem.Evaluate(s.x, &obj, &viol);
    for (double v : viol) EXPECT_LE(v, 1e-9);
    for (const opt::Solution& t : res1->pareto_front) {
      if (&s == &t) continue;
      EXPECT_FALSE(opt::Dominates(t.objectives, s.objectives));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Nsga2SeedProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99999u));

// ---------------------------------------------------------------------
// Property: percentile is monotone in p and bounded by min/max, for
// random samples of any size.
// ---------------------------------------------------------------------

class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, MonotoneAndBounded) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < GetParam(); ++i) xs.push_back(rng.Normal(50, 20));
  stats::Summary s = stats::Summarize(xs);
  double prev = -1e300;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    std::vector<double> work = xs;
    auto v = Percentile(&work, p);
    ASSERT_TRUE(v.ok());
    EXPECT_GE(*v, s.min - 1e-9);
    EXPECT_LE(*v, s.max + 1e-9);
    EXPECT_GE(*v, prev);
    prev = *v;
  }
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, PercentileProperty,
                         ::testing::Values(1, 2, 3, 10, 100, 1000));

// ---------------------------------------------------------------------
// Property: the sliding-window counter credits each event to exactly
// window/slide consecutive emissions (mass conservation), for any
// valid (window, slide) pair.
// ---------------------------------------------------------------------

using WindowParam = std::tuple<double, double>;  // (window, slide)

class SlidingWindowProperty : public ::testing::TestWithParam<WindowParam> {};

TEST_P(SlidingWindowProperty, EventMassConserved) {
  auto [window, slide] = GetParam();
  auto counter = flow::SlidingWindowCounter::Create(window, slide)
                     .MoveValueOrDie();
  Rng rng(5);
  const int kEvents = 500;
  double t = 0.0;
  for (int i = 0; i < kEvents; ++i) {
    t += rng.Exponential(1.0);  // ~1 event/s.
    counter.Add(7, t);
  }
  // Advance far enough that every event left every window.
  double emitted_total = 0.0;
  counter.AdvanceTo(t + 2.0 * window + 2.0 * slide,
                    [&](int64_t entity, double count, SimTime) {
                      EXPECT_EQ(entity, 7);
                      emitted_total += count;
                    });
  double expected = static_cast<double>(kEvents) * (window / slide);
  EXPECT_NEAR(emitted_total, expected, 1e-6)
      << "window=" << window << " slide=" << slide;
}

INSTANTIATE_TEST_SUITE_P(
    WindowShapes, SlidingWindowProperty,
    ::testing::Values(WindowParam{10.0, 10.0}, WindowParam{60.0, 10.0},
                      WindowParam{60.0, 30.0}, WindowParam{300.0, 60.0},
                      WindowParam{120.0, 1.0}),
    [](const ::testing::TestParamInfo<WindowParam>& info) {
      return ParamName("w", static_cast<int>(std::get<0>(info.param)))
          .append(ParamName("_s", static_cast<int>(std::get<1>(info.param))));
    });

// ---------------------------------------------------------------------
// Property: after observing two full seasons of a perfectly periodic
// signal, the seasonal-naive forecaster is exact at every horizon, for
// any (season, step) shape.
// ---------------------------------------------------------------------

using SeasonParam = std::tuple<double, double>;  // (season, step)

class SeasonalForecastProperty
    : public ::testing::TestWithParam<SeasonParam> {};

TEST_P(SeasonalForecastProperty, ExactOnPeriodicSignal) {
  auto [season, step] = GetParam();
  stats::SeasonalNaiveForecaster f(season, step);
  auto signal = [&](double t) {
    return 10.0 + 5.0 * std::sin(2.0 * M_PI * t / season) +
           2.0 * std::cos(6.0 * M_PI * t / season);
  };
  double t = 0.0;
  for (; t < 2.0 * season; t += step) f.Observe(t, signal(t));
  for (int k = 1; k <= 8; ++k) {
    double h = k * step;
    auto pred = f.Forecast(h);
    ASSERT_TRUE(pred.ok());
    EXPECT_NEAR(*pred, signal(t - step + h), 1e-9)
        << "season=" << season << " step=" << step << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeasonShapes, SeasonalForecastProperty,
    ::testing::Values(SeasonParam{kDay, kHour},
                      SeasonParam{kDay, 10.0 * kMinute},
                      SeasonParam{kHour, kMinute},
                      SeasonParam{7.0 * kDay, 6.0 * kHour}),
    [](const ::testing::TestParamInfo<SeasonParam>& info) {
      return ParamName("s", static_cast<int>(std::get<0>(info.param)))
          .append(ParamName("_p", static_cast<int>(std::get<1>(info.param))));
    });

// ---------------------------------------------------------------------
// Property: for any budget, every budget-feasible window plan covers
// its demand in all three layers and stays within the budget; flagged
// windows report honestly (demand cost above budget).
// ---------------------------------------------------------------------

class WindowedPlannerProperty : public ::testing::TestWithParam<double> {};

TEST_P(WindowedPlannerProperty, PlansCoverDemandWithinBudget) {
  double budget = GetParam();
  core::ResourceShareRequest base;
  base.hourly_budget_usd = budget;
  base.bounds[0] = {1.0, 64.0};
  base.bounds[1] = {1.0, 40.0};
  base.bounds[2] = {1.0, 4000.0};
  core::DemandModel model;
  opt::Nsga2Config solver;
  solver.population_size = 40;
  solver.generations = 40;
  core::WindowedShareAnalyzer analyzer(base, model, solver);
  TimeSeries forecast;
  for (int i = 0; i < 12; ++i) {
    forecast.AppendUnchecked(i * kHour,
                             400.0 + 250.0 * (i % 4));
  }
  auto plans = analyzer.PlanHorizon(forecast, 3.0 * kHour);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const core::WindowPlan& wp : *plans) {
    double demand_cost = 0.0;
    for (int i = 0; i < core::kNumLayers; ++i) {
      demand_cost += wp.demand.shares[i] * base.unit_price[i];
    }
    if (wp.within_budget) {
      EXPECT_LE(wp.plan.hourly_cost_usd, budget + 1e-9);
      for (int i = 0; i < core::kNumLayers; ++i) {
        EXPECT_GE(wp.plan.shares[i], wp.demand.shares[i]);
      }
    } else {
      EXPECT_GT(demand_cost, budget);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, WindowedPlannerProperty,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return ParamName(
                               "b", static_cast<int>(info.param * 10.0));
                         });

}  // namespace
}  // namespace flower
