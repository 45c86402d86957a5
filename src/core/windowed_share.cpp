#include "core/windowed_share.h"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.h"

namespace flower::core {

ProvisioningPlan DemandModel::MinimumFor(double records_per_sec) const {
  ProvisioningPlan min;
  double target = std::max(0.05, target_utilization);
  min.shares[static_cast<int>(Layer::kIngestion)] =
      std::ceil(records_per_sec / (records_per_shard * target));
  min.shares[static_cast<int>(Layer::kAnalytics)] = std::ceil(
      records_per_sec * work_units_per_record / (work_units_per_vm * target));
  min.shares[static_cast<int>(Layer::kStorage)] =
      std::ceil((wcu_base + wcu_per_record * records_per_sec) / target);
  for (double& s : min.shares) s = std::max(1.0, s);
  return min;
}

Result<WindowPlan> WindowedShareAnalyzer::PlanWindow(
    SimTime start, SimTime end, double records_per_sec) const {
  if (end <= start) {
    return Status::InvalidArgument("PlanWindow: end must exceed start");
  }
  WindowPlan out;
  out.start = start;
  out.end = end;
  out.forecast_rate = records_per_sec;
  ProvisioningPlan demand = model_.MinimumFor(records_per_sec);
  out.demand = demand;

  // Demand-feasibility check against the budget: the cheapest
  // allocation satisfying the demand is the demand itself.
  double demand_cost = 0.0;
  for (int i = 0; i < kNumLayers; ++i) {
    demand_cost += demand.shares[i] * base_.unit_price[i];
  }
  if (demand_cost > base_.hourly_budget_usd) {
    out.within_budget = false;
    out.plan = demand;
    out.plan.hourly_cost_usd = demand_cost;
    return out;
  }

  // Optimize shares with the demand as per-layer lower bounds.
  ResourceShareRequest req = base_;
  for (int i = 0; i < kNumLayers; ++i) {
    req.bounds[i].min = std::max(req.bounds[i].min, demand.shares[i]);
    req.bounds[i].max = std::max(req.bounds[i].max, req.bounds[i].min);
  }
  ResourceShareAnalyzer analyzer(solver_);
  FLOWER_ASSIGN_OR_RETURN(ResourceShareResult res, analyzer.Analyze(req));
  if (res.pareto_plans.empty()) {
    // Dependency constraints + demand floor may be jointly
    // unsatisfiable within budget.
    out.within_budget = false;
    out.plan = demand;
    out.plan.hourly_cost_usd = demand_cost;
    return out;
  }
  FLOWER_ASSIGN_OR_RETURN(out.plan,
                          ResourceShareAnalyzer::PickBalancedPlan(res, req));
  return out;
}

Result<std::vector<WindowPlan>> WindowedShareAnalyzer::PlanHorizon(
    const TimeSeries& rate_forecast, double window_sec) const {
  if (rate_forecast.empty()) {
    return Status::FailedPrecondition("PlanHorizon: empty forecast");
  }
  if (window_sec <= 0.0) {
    return Status::InvalidArgument("PlanHorizon: window must be positive");
  }
  FLOWER_RETURN_NOT_OK(
      exec::CheckThreadCount(num_threads_, "PlanHorizon: num_threads"));
  // Pass 1 (serial): slice the horizon and pick each window's peak
  // forecast sample, so intra-window bursts are covered.
  struct PendingWindow {
    SimTime start = 0.0;
    SimTime end = 0.0;
    double peak = 0.0;
  };
  std::vector<PendingWindow> pending;
  SimTime t0 = rate_forecast.start_time();
  SimTime horizon_end = rate_forecast.end_time();
  for (SimTime start = t0; start <= horizon_end; start += window_sec) {
    SimTime end = start + window_sec;
    TimeSeries window = rate_forecast.Window(start, end);
    if (window.empty()) continue;
    double peak = 0.0;
    for (const Sample& s : window.samples()) peak = std::max(peak, s.value);
    pending.push_back({start, end, peak});
  }
  if (pending.empty()) {
    return Status::FailedPrecondition("PlanHorizon: no plannable windows");
  }

  // Pass 2 (parallel): windows are independent NSGA-II runs, each
  // writing only its own slot, so the horizon is bit-identical at any
  // thread count. Window-level parallelism is the coarse grain that
  // gives near-linear speedup (each window is one full solver run).
  std::vector<WindowPlan> plans(pending.size());
  exec::ThreadPool pool(num_threads_);
  FLOWER_RETURN_NOT_OK(pool.RunTasks(
      pending.size(),
      [&](uint64_t i, exec::ThreadPool::TaskContext&) -> Status {
        FLOWER_ASSIGN_OR_RETURN(
            plans[i],
            PlanWindow(pending[i].start, pending[i].end, pending[i].peak));
        return Status::OK();
      }));
  return plans;
}

}  // namespace flower::core
