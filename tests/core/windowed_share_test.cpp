#include "core/windowed_share.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"
#include "exec/thread_pool.h"

namespace flower::core {
namespace {

ResourceShareRequest BaseRequest(double budget = 3.0) {
  ResourceShareRequest req;
  req.hourly_budget_usd = budget;
  req.unit_price[0] = 0.015;
  req.unit_price[1] = 0.10;
  req.unit_price[2] = 0.00065;
  req.bounds[0] = {1.0, 64.0};
  req.bounds[1] = {1.0, 40.0};
  req.bounds[2] = {1.0, 4000.0};
  return req;
}

DemandModel Model() {
  DemandModel m;
  m.target_utilization = 0.6;
  m.records_per_shard = 1000.0;
  m.work_units_per_record = 4800.0;
  m.work_units_per_vm = 0.9e6;
  m.wcu_base = 50.0;
  m.wcu_per_record = 0.0;
  return m;
}

opt::Nsga2Config FastSolver() {
  opt::Nsga2Config cfg;
  cfg.population_size = 60;
  cfg.generations = 60;
  return cfg;
}

TEST(DemandModelTest, MinimumScalesWithRate) {
  DemandModel m = Model();
  ProvisioningPlan lo = m.MinimumFor(600.0);
  // Shards: 600/(1000*0.6) = 1; VMs: 600*4800/(0.9e6*0.6) = 5.33 -> 6;
  // WCU: 50/0.6 = 83.3 -> 84.
  EXPECT_DOUBLE_EQ(lo.ingestion(), 1.0);
  EXPECT_DOUBLE_EQ(lo.analytics(), 6.0);
  EXPECT_DOUBLE_EQ(lo.storage(), 84.0);
  ProvisioningPlan hi = m.MinimumFor(3000.0);
  EXPECT_DOUBLE_EQ(hi.ingestion(), 5.0);
  EXPECT_DOUBLE_EQ(hi.analytics(), 27.0);
  EXPECT_GE(hi.storage(), lo.storage());
}

TEST(DemandModelTest, ZeroRateStillNeedsOneUnitPerLayer) {
  ProvisioningPlan p = Model().MinimumFor(0.0);
  EXPECT_GE(p.ingestion(), 1.0);
  EXPECT_GE(p.analytics(), 1.0);
  EXPECT_GE(p.storage(), 1.0);
}

TEST(WindowedShareTest, PlanWindowMeetsDemandWithinBudget) {
  WindowedShareAnalyzer analyzer(BaseRequest(3.0), Model(), FastSolver());
  auto plan = analyzer.PlanWindow(0.0, kHour, 1500.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->within_budget);
  ProvisioningPlan min = Model().MinimumFor(1500.0);
  EXPECT_GE(plan->plan.ingestion(), min.ingestion());
  EXPECT_GE(plan->plan.analytics(), min.analytics());
  EXPECT_GE(plan->plan.storage(), min.storage());
  EXPECT_LE(plan->plan.hourly_cost_usd, 3.0 + 1e-9);
}

TEST(WindowedShareTest, OverBudgetWindowFlagged) {
  // Demand for 3000 rec/s needs ~27 VMs = $2.7/h alone; budget $1.
  WindowedShareAnalyzer analyzer(BaseRequest(1.0), Model(), FastSolver());
  auto plan = analyzer.PlanWindow(0.0, kHour, 3000.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->within_budget);
  // The reported plan is the bare demand minimum with its true cost.
  ProvisioningPlan min = Model().MinimumFor(3000.0);
  EXPECT_DOUBLE_EQ(plan->plan.analytics(), min.analytics());
  EXPECT_GT(plan->plan.hourly_cost_usd, 1.0);
}

TEST(WindowedShareTest, PlanWindowValidatesTimes) {
  WindowedShareAnalyzer analyzer(BaseRequest(), Model(), FastSolver());
  EXPECT_FALSE(analyzer.PlanWindow(100.0, 100.0, 500.0).ok());
  EXPECT_FALSE(analyzer.PlanWindow(100.0, 50.0, 500.0).ok());
}

TEST(WindowedShareTest, HorizonPlansFollowDiurnalForecast) {
  TimeSeries forecast;
  for (double t = 0.0; t < kDay; t += 10.0 * kMinute) {
    double rate =
        1000.0 + 800.0 * std::sin(2.0 * M_PI * t / kDay);
    forecast.AppendUnchecked(t, std::max(100.0, rate));
  }
  WindowedShareAnalyzer analyzer(BaseRequest(4.0), Model(), FastSolver());
  auto plans = analyzer.PlanHorizon(forecast, 4.0 * kHour);
  ASSERT_TRUE(plans.ok());
  ASSERT_GE(plans->size(), 6u);
  // The demand profile follows the forecast: peak windows need clearly
  // more analytics VMs than trough windows, and every budget-feasible
  // plan covers its window's demand.
  double max_vms = 0.0, min_vms = 1e18;
  for (const WindowPlan& wp : *plans) {
    max_vms = std::max(max_vms, wp.demand.analytics());
    min_vms = std::min(min_vms, wp.demand.analytics());
    EXPECT_TRUE(wp.within_budget);
    EXPECT_GT(wp.forecast_rate, 0.0);
    EXPECT_GE(wp.plan.analytics(), wp.demand.analytics());
    EXPECT_GE(wp.plan.ingestion(), wp.demand.ingestion());
    EXPECT_GE(wp.plan.storage(), wp.demand.storage());
  }
  EXPECT_GT(max_vms, 1.5 * min_vms);
}

TEST(WindowedShareTest, HorizonUsesWindowPeakNotMean) {
  // A flat forecast with one in-window spike: the window's plan must
  // cover the spike.
  TimeSeries forecast;
  for (int i = 0; i < 12; ++i) {
    forecast.AppendUnchecked(i * 10.0 * kMinute, i == 5 ? 2500.0 : 400.0);
  }
  WindowedShareAnalyzer analyzer(BaseRequest(4.0), Model(), FastSolver());
  auto plans = analyzer.PlanHorizon(forecast, 2.0 * kHour);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  ProvisioningPlan spike_min = Model().MinimumFor(2500.0);
  EXPECT_GE((*plans)[0].plan.analytics(), spike_min.analytics());
}

TEST(WindowedShareTest, HorizonValidatesInput) {
  WindowedShareAnalyzer analyzer(BaseRequest(), Model(), FastSolver());
  TimeSeries empty;
  EXPECT_FALSE(analyzer.PlanHorizon(empty, kHour).ok());
  TimeSeries one;
  one.AppendUnchecked(0.0, 100.0);
  EXPECT_FALSE(analyzer.PlanHorizon(one, -1.0).ok());
  for (size_t threads : {exec::kMaxThreads + 1, size_t{100000}}) {
    WindowedShareAnalyzer wide(BaseRequest(), Model(), FastSolver(), threads);
    EXPECT_EQ(wide.PlanHorizon(one, kHour).status().code(),
              StatusCode::kInvalidArgument)
        << threads;
  }
}

TEST(WindowedShareTest, HorizonIsBitIdenticalAcrossThreadCounts) {
  // PlanHorizon fans each window out to its own solver run; the plans
  // must be bitwise-identical no matter how many threads execute them.
  TimeSeries forecast;
  for (double t = 0.0; t < kDay; t += 10.0 * kMinute) {
    double rate = 1000.0 + 800.0 * std::sin(2.0 * M_PI * t / kDay);
    forecast.AppendUnchecked(t, std::max(100.0, rate));
  }
  WindowedShareAnalyzer serial(BaseRequest(4.0), Model(), FastSolver(),
                               /*num_threads=*/1);
  WindowedShareAnalyzer parallel(BaseRequest(4.0), Model(), FastSolver(),
                                 /*num_threads=*/4);
  auto a = serial.PlanHorizon(forecast, 2.0 * kHour);
  auto b = parallel.PlanHorizon(forecast, 2.0 * kHour);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  ASSERT_GE(a->size(), 10u);
  for (size_t i = 0; i < a->size(); ++i) {
    const WindowPlan& wa = (*a)[i];
    const WindowPlan& wb = (*b)[i];
    EXPECT_EQ(wa.start, wb.start);
    EXPECT_EQ(wa.end, wb.end);
    EXPECT_EQ(wa.forecast_rate, wb.forecast_rate);
    EXPECT_EQ(wa.within_budget, wb.within_budget);
    EXPECT_EQ(wa.plan.hourly_cost_usd, wb.plan.hourly_cost_usd);
    for (int l = 0; l < kNumLayers; ++l) {
      EXPECT_EQ(wa.plan.shares[l], wb.plan.shares[l]) << "window " << i;
      EXPECT_EQ(wa.demand.shares[l], wb.demand.shares[l]) << "window " << i;
    }
  }
}

TEST(WindowedShareTest, ParallelHorizonPropagatesWindowErrors) {
  // An invalid solver config makes every PlanWindow fail inside the
  // parallel sweep; the first error must surface as the call's status
  // rather than crash or hang.
  opt::Nsga2Config bad_solver = FastSolver();
  bad_solver.population_size = 5;  // Odd: NSGA-II rejects it.
  WindowedShareAnalyzer analyzer(BaseRequest(4.0), Model(), bad_solver,
                                 /*num_threads=*/4);
  TimeSeries forecast;
  for (int i = 0; i < 24; ++i) {
    forecast.AppendUnchecked(i * kHour, 2000.0);
  }
  auto plans = analyzer.PlanHorizon(forecast, kHour);
  EXPECT_FALSE(plans.ok());
}

TEST(WindowedShareTest, DependencyConstraintsStillHold) {
  ResourceShareRequest req = BaseRequest(4.0);
  req.constraints.push_back(LinearConstraint::AtMost(
      Layer::kIngestion, 2.0, Layer::kStorage, -1.0, 0.0,
      "2*shards <= wcu"));
  WindowedShareAnalyzer analyzer(req, Model(), FastSolver());
  auto plan = analyzer.PlanWindow(0.0, kHour, 2000.0);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->within_budget);
  EXPECT_LE(2.0 * plan->plan.ingestion(), plan->plan.storage() + 1e-9);
}

TimeSeries DiurnalForecast() {
  TimeSeries forecast;
  for (double t = 0.0; t < kDay; t += 10.0 * kMinute) {
    double rate = 1000.0 + 800.0 * std::sin(2.0 * M_PI * t / kDay);
    forecast.AppendUnchecked(t, std::max(100.0, rate));
  }
  return forecast;
}

TEST(WindowedShareWarmTest, WarmChainPlansStayValid) {
  // Warm-started horizon planning seeds, polishes, and merges fronts —
  // every surviving plan must still respect the bounds, the budget, and
  // the dependency constraints, and every window must still cover its
  // demand.
  ResourceShareRequest req = BaseRequest(4.0);
  req.constraints.push_back(LinearConstraint::AtMost(
      Layer::kIngestion, 2.0, Layer::kStorage, -1.0, 0.0,
      "2*shards <= wcu"));
  IncrementalPlanning inc;
  inc.warm_start = true;
  inc.stall_generations = 4;
  WindowedShareAnalyzer analyzer(req, Model(), FastSolver(),
                                 /*num_threads=*/1, inc);
  auto plans = analyzer.PlanHorizon(DiurnalForecast(), 2.0 * kHour);
  ASSERT_TRUE(plans.ok());
  ASSERT_GE(plans->size(), 10u);
  size_t early_exits = 0;
  for (size_t i = 0; i < plans->size(); ++i) {
    const WindowPlan& wp = (*plans)[i];
    EXPECT_TRUE(wp.within_budget) << "window " << i;
    EXPECT_GE(wp.plan.analytics(), wp.demand.analytics()) << "window " << i;
    EXPECT_GT(wp.evaluations, 0u) << "window " << i;
    if (wp.early_exit) ++early_exits;
    ASSERT_FALSE(wp.pareto_plans.empty()) << "window " << i;
    for (const ProvisioningPlan& p : wp.pareto_plans) {
      EXPECT_LE(p.hourly_cost_usd, 4.0 + 1e-9);
      EXPECT_LE(2.0 * p.ingestion(), p.storage() + 1e-9);
      for (int l = 0; l < kNumLayers; ++l) {
        EXPECT_GE(p.shares[l], wp.demand.shares[l] - 1e-9)
            << "window " << i << " layer " << l;
        EXPECT_LE(p.shares[l], req.bounds[l].max + 1e-9)
            << "window " << i << " layer " << l;
      }
    }
  }
  // The early-exit fires on seeded windows once the chain warms up.
  EXPECT_GE(early_exits, plans->size() / 2);
}

TEST(WindowedShareWarmTest, WarmChainIsDeterministic) {
  // Two identical warm runs produce byte-identical horizons, and the
  // chain's determinism must survive solver-level threading.
  IncrementalPlanning inc;
  inc.warm_start = true;
  inc.stall_generations = 4;
  auto run = [&](size_t solver_threads) {
    opt::Nsga2Config solver = FastSolver();
    solver.num_threads = solver_threads;
    WindowedShareAnalyzer analyzer(BaseRequest(4.0), Model(), solver,
                                   /*num_threads=*/1, inc);
    auto plans = analyzer.PlanHorizon(DiurnalForecast(), 2.0 * kHour);
    EXPECT_TRUE(plans.ok());
    return *plans;
  };
  std::vector<WindowPlan> base = run(1);
  for (size_t threads : {1u, 4u}) {
    std::vector<WindowPlan> other = run(threads);
    ASSERT_EQ(other.size(), base.size()) << threads << " solver threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(other[i].early_exit, base[i].early_exit) << "window " << i;
      EXPECT_EQ(other[i].evaluations, base[i].evaluations) << "window " << i;
      ASSERT_EQ(other[i].pareto_plans.size(), base[i].pareto_plans.size())
          << "window " << i;
      for (size_t j = 0; j < base[i].pareto_plans.size(); ++j) {
        for (int l = 0; l < kNumLayers; ++l) {
          EXPECT_EQ(other[i].pareto_plans[j].shares[l],
                    base[i].pareto_plans[j].shares[l])
              << "window " << i << " plan " << j;
        }
      }
      for (int l = 0; l < kNumLayers; ++l) {
        EXPECT_EQ(other[i].plan.shares[l], base[i].plan.shares[l])
            << "window " << i;
      }
    }
  }
}

TEST(WindowedShareWarmTest, WarmChainSpendsFewerEvaluationsThanCold) {
  IncrementalPlanning cold_knobs;  // Everything off.
  IncrementalPlanning warm_knobs;
  warm_knobs.warm_start = true;
  warm_knobs.stall_generations = 4;
  WindowedShareAnalyzer cold(BaseRequest(4.0), Model(), FastSolver(),
                             /*num_threads=*/1, cold_knobs);
  WindowedShareAnalyzer warm(BaseRequest(4.0), Model(), FastSolver(),
                             /*num_threads=*/1, warm_knobs);
  TimeSeries forecast = DiurnalForecast();
  auto cold_plans = cold.PlanHorizon(forecast, 2.0 * kHour);
  auto warm_plans = warm.PlanHorizon(forecast, 2.0 * kHour);
  ASSERT_TRUE(cold_plans.ok());
  ASSERT_TRUE(warm_plans.ok());
  size_t cold_evals = 0, warm_evals = 0;
  for (const WindowPlan& wp : *cold_plans) cold_evals += wp.evaluations;
  for (const WindowPlan& wp : *warm_plans) warm_evals += wp.evaluations;
  EXPECT_LT(warm_evals, cold_evals);
}

TEST(WindowedShareWarmTest, FeaturesOffReproducesPlainHorizon) {
  // A default IncrementalPlanning must be byte-identical to the plain
  // analyzer (the PR's features-off contract at the windowed layer).
  WindowedShareAnalyzer plain(BaseRequest(4.0), Model(), FastSolver());
  WindowedShareAnalyzer off(BaseRequest(4.0), Model(), FastSolver(),
                            /*num_threads=*/1, IncrementalPlanning{});
  TimeSeries forecast = DiurnalForecast();
  auto a = plain.PlanHorizon(forecast, 2.0 * kHour);
  auto b = off.PlanHorizon(forecast, 2.0 * kHour);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].early_exit, false);
    EXPECT_EQ((*b)[i].early_exit, false);
    EXPECT_EQ((*a)[i].evaluations, (*b)[i].evaluations);
    for (int l = 0; l < kNumLayers; ++l) {
      EXPECT_EQ((*a)[i].plan.shares[l], (*b)[i].plan.shares[l])
          << "window " << i;
    }
  }
}

}  // namespace
}  // namespace flower::core
