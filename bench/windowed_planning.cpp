// Extension experiment (paper §2): "the resource shares can be
// determined with respect to arbitrary time windows". This bench
// exercises the windowed resource-share planner end to end:
//
//   1. Record a 5-day diurnal click-rate trace (per-10-minute samples)
//      and backtest the forecaster family on it — the planner needs a
//      forecast, and the seasonal-naive forecaster should win on a
//      diurnal signal.
//   2. Feed the day-ahead seasonal forecast into the
//      WindowedShareAnalyzer to produce one provisioning plan per
//      4-hour window under a budget and dependency constraints.
//   3. Compare the planned-capacity cost against static peak
//      provisioning (the proactive counterpart of the COST bench).
//   4. Re-plan a finer (1-hour-window) horizon at 1 thread and at
//      --threads N: the plans must be bit-identical, and on machines
//      with enough cores the windows parallelize near-linearly.
//
// Every window is one cold NSGA-II solve. The solver wall times go to
// stderr, so stdout is byte-identical across runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/windowed_share.h"
#include "exec/thread_pool.h"
#include "stats/forecast.h"
#include "tools/flag_parser.h"

namespace flower {
namespace {

// Synthetic 5-day history: diurnal + weekly drift + noise.
TimeSeries History(uint64_t seed) {
  TimeSeries out;
  Rng rng(seed);
  const double step = 10.0 * kMinute;
  for (double t = 0.0; t < 5.0 * kDay; t += step) {
    double diurnal = 1200.0 + 900.0 * std::sin(2.0 * M_PI * (t - 6 * kHour) / kDay);
    double drift = 40.0 * (t / kDay);
    double noise = rng.Normal(0.0, 40.0);
    out.AppendUnchecked(t, std::max(50.0, diurnal + drift + noise));
  }
  return out;
}

bool PlansIdentical(const std::vector<core::WindowPlan>& a,
                    const std::vector<core::WindowPlan>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != b[i].start || a[i].end != b[i].end ||
        a[i].forecast_rate != b[i].forecast_rate ||
        a[i].within_budget != b[i].within_budget ||
        a[i].plan.hourly_cost_usd != b[i].plan.hourly_cost_usd) {
      return false;
    }
    for (int l = 0; l < core::kNumLayers; ++l) {
      if (a[i].plan.shares[l] != b[i].plan.shares[l] ||
          a[i].demand.shares[l] != b[i].demand.shares[l]) {
        return false;
      }
    }
  }
  return true;
}

int Run(size_t threads) {
  bench::Header(
      "PLAN  Windowed resource shares from forecasts (paper §2 extension)");
  TimeSeries history = History(7);
  const double step = 10.0 * kMinute;

  // --- 1. Forecaster backtest.
  stats::NaiveForecaster naive;
  stats::EmaForecaster ema(0.3);
  stats::HoltForecaster holt(0.5, 0.2);
  stats::SeasonalNaiveForecaster seasonal(kDay, step);
  // Planning schedules capacity hours ahead, so evaluate forecasters at
  // the 4-hour horizon (24 ten-minute steps) alongside one-step error.
  const size_t kPlanningSteps = 24;
  TablePrinter ftable(
      {"forecaster", "one-step MAE (rec/s)", "4h-ahead MAE (rec/s)"});
  double mae_seasonal = 0.0, mae_naive = 0.0;
  for (stats::Forecaster* f :
       std::initializer_list<stats::Forecaster*>{&naive, &ema, &holt,
                                                 &seasonal}) {
    stats::NaiveForecaster n2;
    stats::EmaForecaster e2(0.3);
    stats::HoltForecaster h2(0.5, 0.2);
    stats::SeasonalNaiveForecaster s2(kDay, step);
    stats::Forecaster* fresh = f == &naive  ? static_cast<stats::Forecaster*>(&n2)
                               : f == &ema  ? static_cast<stats::Forecaster*>(&e2)
                               : f == &holt ? static_cast<stats::Forecaster*>(&h2)
                                            : static_cast<stats::Forecaster*>(&s2);
    auto mae1 = stats::BacktestOneStepMae(f, history);
    auto maeH = stats::BacktestHorizonMae(fresh, history, kPlanningSteps);
    if (!mae1.ok() || !maeH.ok()) continue;
    ftable.AddRow({f->name(), TablePrinter::Num(*mae1, 1),
                   TablePrinter::Num(*maeH, 1)});
    if (f == &seasonal) mae_seasonal = *maeH;
    if (f == &naive) mae_naive = *maeH;
  }
  ftable.Print(std::cout);

  // --- 2. Day-ahead forecast (seasonal naive) and window plans.
  TimeSeries forecast;
  stats::SeasonalNaiveForecaster day_ahead(kDay, step);
  for (const Sample& s : history.samples()) {
    day_ahead.Observe(s.time, s.value);
  }
  double t_end = history.end_time();
  for (double h = step; h <= kDay; h += step) {
    auto f = day_ahead.Forecast(h);
    if (f.ok()) forecast.AppendUnchecked(t_end + h, *f);
  }

  core::ResourceShareRequest base;
  base.hourly_budget_usd = 4.0;
  pricing::PriceBook book;
  base.SetPricesFrom(book);
  base.bounds[0] = {1.0, 64.0};
  base.bounds[1] = {1.0, 40.0};
  base.bounds[2] = {1.0, 4000.0};
  base.constraints.push_back(core::LinearConstraint::AtMost(
      core::Layer::kIngestion, 2.0, core::Layer::kStorage, -1.0, 0.0,
      "2*shards <= wcu"));
  core::DemandModel model;
  opt::Nsga2Config solver;
  solver.population_size = 80;
  solver.generations = 100;
  core::WindowedShareAnalyzer analyzer(base, model, solver);
  auto plans = analyzer.PlanHorizon(forecast, 4.0 * kHour);
  if (!plans.ok()) {
    std::cerr << plans.status() << "\n";
    return 1;
  }

  TablePrinter ptable({"window (h)", "peak forecast (rec/s)",
                       "demand I/A/S", "plan I/A/S", "plan $/h",
                       "in budget"});
  double planned_cost_day = 0.0;
  double max_demand_vms = 0.0;
  for (const core::WindowPlan& wp : *plans) {
    ptable.AddRow(
        {TablePrinter::Num((wp.start - t_end) / kHour, 0) + "-" +
             TablePrinter::Num((wp.end - t_end) / kHour, 0),
         TablePrinter::Num(wp.forecast_rate, 0),
         TablePrinter::Num(wp.demand.ingestion(), 0) + "/" +
             TablePrinter::Num(wp.demand.analytics(), 0) + "/" +
             TablePrinter::Num(wp.demand.storage(), 0),
         TablePrinter::Num(wp.plan.ingestion(), 0) + "/" +
             TablePrinter::Num(wp.plan.analytics(), 0) + "/" +
             TablePrinter::Num(wp.plan.storage(), 0),
         TablePrinter::Num(wp.plan.hourly_cost_usd, 3),
         wp.within_budget ? "yes" : "NO"});
    // Cost of provisioning the *demand* for each window.
    double window_hours = (wp.end - wp.start) / kHour;
    double demand_cost = 0.0;
    for (int i = 0; i < core::kNumLayers; ++i) {
      demand_cost += wp.demand.shares[i] * base.unit_price[i];
    }
    planned_cost_day += demand_cost * window_hours;
    max_demand_vms = std::max(max_demand_vms, wp.demand.analytics());
  }
  ptable.Print(std::cout);

  // --- 3. Static peak provisioning cost for the same day.
  core::ProvisioningPlan peak =
      model.MinimumFor(2400.0);  // True diurnal peak is ~2300-2400.
  double static_cost_day = 0.0;
  for (int i = 0; i < core::kNumLayers; ++i) {
    static_cost_day += peak.shares[i] * base.unit_price[i] * 24.0;
  }
  double saving = 100.0 * (static_cost_day - planned_cost_day) /
                  static_cost_day;
  std::cout << "\nStatic-peak day cost: $"
            << TablePrinter::Num(static_cost_day, 2)
            << "  planned (windowed) day cost: $"
            << TablePrinter::Num(planned_cost_day, 2) << "  saving: "
            << TablePrinter::Num(saving, 1) << "%\n";

  // --- 4. Parallel re-planning: 1-hour windows give 24 independent
  // NSGA-II runs, the coarse grain the exec::ThreadPool fans out over.
  std::cout << "\nParallel re-planning (1h windows, 24 solver runs):\n";
  core::WindowedShareAnalyzer serial_analyzer(base, model, solver,
                                              /*num_threads=*/1);
  auto ps0 = std::chrono::steady_clock::now();
  auto serial_plans = serial_analyzer.PlanHorizon(forecast, 1.0 * kHour);
  auto ps1 = std::chrono::steady_clock::now();
  core::WindowedShareAnalyzer parallel_analyzer(base, model, solver, threads);
  auto pp0 = std::chrono::steady_clock::now();
  auto parallel_plans = parallel_analyzer.PlanHorizon(forecast, 1.0 * kHour);
  auto pp1 = std::chrono::steady_clock::now();
  bool speedup_ok = false;
  bool plans_identical = false;
  double serial_ms = std::chrono::duration<double, std::milli>(ps1 - ps0).count();
  double parallel_ms =
      std::chrono::duration<double, std::milli>(pp1 - pp0).count();
  unsigned hw = std::thread::hardware_concurrency();
  if (serial_plans.ok() && parallel_plans.ok()) {
    plans_identical = PlansIdentical(*serial_plans, *parallel_plans);
    double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
    std::cerr << "  1 thread:  " << TablePrinter::Num(serial_ms, 1)
              << " ms over " << serial_plans->size() << " windows\n"
              << "  " << threads << " threads: "
              << TablePrinter::Num(parallel_ms, 1) << " ms  (speedup "
              << TablePrinter::Num(speedup, 2) << "x, "
              << hw << " hardware threads available)\n";
    speedup_ok = speedup >= 3.0;
  } else {
    if (!serial_plans.ok()) std::cerr << serial_plans.status() << "\n";
    if (!parallel_plans.ok()) std::cerr << parallel_plans.status() << "\n";
  }

  bool ok = true;
  ok &= bench::Verdict(
      "seasonal-naive beats last-value naive at the 4h planning horizon",
      mae_seasonal > 0.0 && mae_seasonal < mae_naive);
  ok &= bench::Verdict(
      "1h-window horizon is bit-identical at 1 vs " +
          std::to_string(threads) + " threads",
      plans_identical);
  if (hw >= 8 && threads >= 8) {
    ok &= bench::Verdict("re-planning speeds up >= 3x at 8+ threads",
                         speedup_ok);
  } else {
    std::cout << "[SKIP] speedup >= 3x check needs 8+ hardware threads "
                 "(have "
              << hw << ", requested " << threads << ")\n";
  }
  bool follows = false;
  double min_vms = 1e18, max_vms = 0.0;
  for (const core::WindowPlan& wp : *plans) {
    min_vms = std::min(min_vms, wp.demand.analytics());
    max_vms = std::max(max_vms, wp.demand.analytics());
  }
  follows = max_vms >= 1.5 * min_vms;
  ok &= bench::Verdict("window plans follow the diurnal forecast "
                       "(peak demand >= 1.5x trough demand)",
                       follows);
  ok &= bench::Verdict("every window is plannable within the budget",
                       std::all_of(plans->begin(), plans->end(),
                                   [](const core::WindowPlan& wp) {
                                     return wp.within_budget;
                                   }));
  ok &= bench::Verdict("windowed planning undercuts static peak cost by "
                       ">= 20%",
                       saving >= 20.0);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: windowed_planning [--threads=N]\n";
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n" << kUsage;
    return 2;
  }
  flower::Status known = flags->CheckKnown({"threads"}, {});
  if (!known.ok()) {
    std::cerr << known.message() << "\n" << kUsage;
    return 2;
  }
  auto threads = flags->GetUnsigned("threads", 8, flower::exec::kMaxThreads);
  if (!threads.ok() || *threads < 1) {
    std::cerr << "--threads expects an integer in [1, "
              << flower::exec::kMaxThreads << "]\n";
    return 2;
  }
  return flower::Run(static_cast<size_t>(*threads));
}
