#include "core/windowed_share.h"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.h"

namespace flower::core {

namespace {

// Levels one plan onto the maximal integer lattice surface: greedily
// bump each layer's share by one unit while the bounds, the budget, and
// the dependency constraints still hold. An early-exited solve leaves
// points with a unit or two of unspent slack; the polish recovers that
// closed-form instead of spending solver generations on it.
void PolishPlan(const ResourceShareRequest& req, ProvisioningPlan* p) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int j = 0; j < kNumLayers; ++j) {
      double next = p->shares[j] + 1.0;
      if (next > req.bounds[j].max + 1e-9) continue;
      double cost = 0.0;
      for (int i = 0; i < kNumLayers; ++i) {
        cost += (i == j ? next : p->shares[i]) * req.unit_price[i];
      }
      if (cost > req.hourly_budget_usd + 1e-9) continue;
      bool feasible = true;
      for (const LinearConstraint& c : req.constraints) {
        double lhs = 0.0;
        for (int i = 0; i < kNumLayers; ++i) {
          lhs += c.coeff[i] * (i == j ? next : p->shares[i]);
        }
        if (lhs > c.rhs + 1e-9) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      p->shares[static_cast<size_t>(j)] = next;
      p->hourly_cost_usd = cost;
      changed = true;
    }
  }
}

// Polished plans can collide or dominate one another; keep the
// deduplicated non-dominated subset, sorted lexicographically by shares
// for a deterministic order.
void PolishFront(const ResourceShareRequest& req,
                 std::vector<ProvisioningPlan>* front) {
  for (ProvisioningPlan& p : *front) PolishPlan(req, &p);
  std::sort(front->begin(), front->end(),
            [](const ProvisioningPlan& a, const ProvisioningPlan& b) {
              for (int i = 0; i < kNumLayers; ++i) {
                if (a.shares[i] != b.shares[i]) return a.shares[i] < b.shares[i];
              }
              return false;
            });
  auto dominates = [](const ProvisioningPlan& a, const ProvisioningPlan& b) {
    bool better = false;
    for (int i = 0; i < kNumLayers; ++i) {
      if (a.shares[i] < b.shares[i]) return false;
      if (a.shares[i] > b.shares[i]) better = true;
    }
    return better;
  };
  std::vector<ProvisioningPlan> kept;
  kept.reserve(front->size());
  for (size_t i = 0; i < front->size(); ++i) {
    bool dead = false;
    for (size_t j = 0; j < front->size() && !dead; ++j) {
      if (j == i) continue;
      if (dominates((*front)[j], (*front)[i])) dead = true;
      // Exact duplicate: keep only the first occurrence.
      if (j < i && !dominates((*front)[j], (*front)[i]) &&
          !dominates((*front)[i], (*front)[j])) {
        bool equal = true;
        for (int k = 0; k < kNumLayers; ++k) {
          if ((*front)[i].shares[k] != (*front)[j].shares[k]) equal = false;
        }
        if (equal) dead = true;
      }
    }
    if (!dead) kept.push_back((*front)[i]);
  }
  *front = std::move(kept);
}

}  // namespace

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

Result<WindowPlan> WindowedShareAnalyzer::PlanWindowImpl(
    SimTime start, SimTime end, double records_per_sec,
    const std::vector<std::vector<double>>* seed,
    const std::vector<ProvisioningPlan>* carry_front,
    std::vector<std::vector<double>>* final_population,
    bool use_stall) const {
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
  opt::Nsga2Config config = solver_;
  if (use_stall) {
    config.stall_generations = incremental_.stall_generations;
    config.stall_tolerance = incremental_.stall_tolerance;
  }
  if (seed != nullptr && !seed->empty()) {
    // Deterministic per-objective budget-extreme anchors: hold every
    // other layer at its floor and spend the residual budget on layer
    // j. A carried population explores the front's corners worst (its
    // seeds cluster where the previous window's front was dense), so
    // three of the population's slots pin the extremes every window
    // instead of rediscovering them by mutation luck. Unseeded warm-up
    // windows stay anchor-free: they run exactly the cold solve.
    double floor_cost = 0.0;
    for (int i = 0; i < kNumLayers; ++i) {
      floor_cost += req.bounds[i].min * req.unit_price[i];
    }
    for (int j = 0; j < kNumLayers; ++j) {
      std::vector<double> anchor(kNumLayers);
      for (int i = 0; i < kNumLayers; ++i) anchor[i] = req.bounds[i].min;
      double residual = req.hourly_budget_usd - floor_cost +
                        req.bounds[j].min * req.unit_price[j];
      anchor[static_cast<size_t>(j)] =
          req.unit_price[j] > 0.0
              ? std::clamp(residual / req.unit_price[j], req.bounds[j].min,
                           req.bounds[j].max)
              : req.bounds[j].max;
      config.seed_population.push_back(std::move(anchor));
    }
    // Partial injection: only the best-ranked seed_fraction of the
    // population carries over; the solver tops up the rest with fresh
    // random individuals (the final population is ordered by rank, so
    // a prefix is the elite slice).
    double frac = std::clamp(incremental_.seed_fraction, 0.0, 1.0);
    size_t max_seeds = static_cast<size_t>(
        std::ceil(frac * static_cast<double>(config.population_size)));
    max_seeds = std::min(max_seeds, seed->size());
    config.seed_population.insert(
        config.seed_population.end(), seed->begin(),
        seed->begin() + static_cast<long>(max_seeds));
  }
  ResourceShareAnalyzer analyzer(config);
  FLOWER_ASSIGN_OR_RETURN(ResourceShareResult res, analyzer.Analyze(req));
  out.evaluations = res.evaluations;
  out.early_exit = res.early_exit;
  if (final_population != nullptr) {
    *final_population = std::move(res.final_population);
  }
  if (res.pareto_plans.empty()) {
    // Dependency constraints + demand floor may be jointly
    // unsatisfiable within budget.
    out.within_budget = false;
    out.plan = demand;
    out.plan.hourly_cost_usd = demand_cost;
    return out;
  }
  if (seed != nullptr && !seed->empty()) {
    // Re-validate the previous window's front under this window's
    // bounds and merge the survivors: floors move slowly between
    // adjacent windows, so the carried front is a near-optimal spread
    // this window's (early-exited) solve would otherwise have to
    // rediscover. The chain accumulates front coverage this way.
    if (carry_front != nullptr) {
      for (const ProvisioningPlan& prev : *carry_front) {
        ProvisioningPlan cand = prev;
        double cost = 0.0;
        for (int i = 0; i < kNumLayers; ++i) {
          cand.shares[i] =
              std::clamp(cand.shares[i], req.bounds[i].min, req.bounds[i].max);
          cost += cand.shares[i] * req.unit_price[i];
        }
        if (cost > req.hourly_budget_usd + 1e-9) continue;
        bool feasible = true;
        for (const LinearConstraint& c : req.constraints) {
          double lhs = 0.0;
          for (int i = 0; i < kNumLayers; ++i) {
            lhs += c.coeff[i] * cand.shares[i];
          }
          if (lhs > c.rhs + 1e-9) {
            feasible = false;
            break;
          }
        }
        if (!feasible) continue;
        cand.hourly_cost_usd = cost;
        res.pareto_plans.push_back(std::move(cand));
      }
    }
    // Warm solves exit early, so their front points carry leftover
    // integer slack; the lattice polish levels them (and the merged
    // carry-overs) onto the maximal surface before the balanced plan
    // is picked, then keeps the deduplicated non-dominated subset.
    PolishFront(req, &res.pareto_plans);
  }
  FLOWER_ASSIGN_OR_RETURN(out.plan,
                          ResourceShareAnalyzer::PickBalancedPlan(res, req));
  out.within_budget = true;
  out.pareto_plans = std::move(res.pareto_plans);
  return out;
}

Result<WindowPlan> WindowedShareAnalyzer::PlanWindow(
    SimTime start, SimTime end, double records_per_sec) const {
  return PlanWindowImpl(start, end, records_per_sec, nullptr, nullptr,
                        nullptr, /*use_stall=*/true);
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

  // Warm-started horizons chain window k's final population into
  // window k+1, so the windows must run in order; the per-window
  // speedup comes from the warm seeds + early-exit instead of
  // window-level parallelism (the solver itself may still fan out).
  if (incremental_.warm_start) {
    std::vector<WindowPlan> plans;
    plans.reserve(pending.size());
    std::vector<std::vector<double>> carry;
    std::vector<std::vector<double>> next;
    std::vector<ProvisioningPlan> carry_front;
    for (const PendingWindow& w : pending) {
      // The chain's warm-up windows (no carry yet) run the full
      // generation budget: the early exit measures stagnation, and an
      // unseeded population that anchors every later window deserves
      // full exploration. Seeded windows start near-converged, so the
      // early exit is what converts the warm start into wall-clock.
      FLOWER_ASSIGN_OR_RETURN(
          WindowPlan plan,
          PlanWindowImpl(w.start, w.end, w.peak,
                         carry.empty() ? nullptr : &carry,
                         carry_front.empty() ? nullptr : &carry_front, &next,
                         /*use_stall=*/!carry.empty()));
      // Budget-infeasible windows skip the solver and return an empty
      // population; keep the previous carry so the chain survives them.
      if (!next.empty()) carry = std::move(next);
      next.clear();
      if (!plan.pareto_plans.empty()) carry_front = plan.pareto_plans;
      plans.push_back(std::move(plan));
    }
    return plans;
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
