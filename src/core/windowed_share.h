#ifndef FLOWER_CORE_WINDOWED_SHARE_H_
#define FLOWER_CORE_WINDOWED_SHARE_H_

#include <vector>

#include "common/time_series.h"
#include "core/resource_share.h"

namespace flower::core {

/// Translates a workload rate (records/s) into minimum per-layer
/// resource demands at the target utilization. The defaults match the
/// canonical click-stream flow.
struct DemandModel {
  /// Target utilization fraction each layer should run at.
  double target_utilization = 0.6;
  /// Ingestion: one shard accepts this many records/s at 100%.
  double records_per_shard = 1000.0;
  /// Analytics: work units per record and per-VM work units/s.
  double work_units_per_record = 4800.0;
  double work_units_per_vm = 0.9e6;
  /// Storage: write units/s as an affine function of the arrival rate,
  /// wcu(rate) = wcu_base + wcu_per_record * rate. For the sliding-
  /// window flow the base term (aggregates per slide) dominates.
  double wcu_base = 50.0;
  double wcu_per_record = 0.0;

  /// Minimum resources for a given arrival rate (ingestion, analytics,
  /// storage).
  ProvisioningPlan MinimumFor(double records_per_sec) const;
};

/// One planning window: the forecast demand, the plan chosen for it,
/// and whether the budget could satisfy the demand at all.
struct WindowPlan {
  SimTime start = 0.0;
  SimTime end = 0.0;
  double forecast_rate = 0.0;
  /// Minimum per-layer allocation that serves the forecast at the
  /// demand model's target utilization — what an operator would
  /// provision at the window start.
  ProvisioningPlan demand;
  /// Budget-constrained balanced plan (>= demand in every layer when
  /// within_budget); its shares are the controllers' caps for the
  /// window.
  ProvisioningPlan plan;
  /// False when even the cheapest demand-satisfying allocation exceeds
  /// the window's budget; `plan` then holds the bare demand minimum
  /// (over budget) so operators can see the shortfall.
  bool within_budget = true;
  /// The window's full Pareto front (empty when the solver was skipped
  /// because the demand already exceeds the budget) — lets benches
  /// compare warm vs cold front quality per window.
  std::vector<ProvisioningPlan> pareto_plans;
  /// Objective evaluations the window's solve spent (0 when skipped).
  size_t evaluations = 0;
  /// True when the convergence early-exit stopped the window's solve.
  bool early_exit = false;
};

/// Windowed resource-share analysis — the paper's §2 note that "the
/// resource shares can be determined with respect to arbitrary time
/// windows", made concrete: given a forecast arrival-rate profile, a
/// base request (budget + dependency constraints) and a demand model,
/// produce one provisioning plan per window whose lower bounds follow
/// the forecast demand. Controllers then use each window's plan as
/// their share upper bounds for that window.
class WindowedShareAnalyzer {
 public:
  /// `num_threads` parallelizes PlanHorizon across windows (0 =
  /// hardware concurrency). Each window's NSGA-II run is independent
  /// and seeded from the solver config, so the planned horizon is
  /// bit-identical at any thread count; errors propagate first-wins.
  /// Window-level threading composes multiplicatively with
  /// `solver.num_threads` (each window spawns its own solver pool), so
  /// enable one level or the other, not both.
  ///
  /// `incremental.warm_start` chains window k's final population into
  /// window k+1's initial population; the chain is inherently
  /// sequential, so PlanHorizon then runs its windows in order on the
  /// calling thread (the solver may still be multi-threaded).
  /// `incremental.stall_generations` applies the convergence early-exit
  /// to every window's solve — except a warm chain's unseeded warm-up
  /// windows, which run the full generation budget since their fronts
  /// anchor the rest of the chain. The cache knob is unused here
  /// (consecutive windows have different demand floors).
  WindowedShareAnalyzer(ResourceShareRequest base_request, DemandModel model,
                        opt::Nsga2Config solver = {}, size_t num_threads = 1,
                        IncrementalPlanning incremental = {})
      : base_(std::move(base_request)),
        model_(model),
        solver_(solver),
        num_threads_(num_threads),
        incremental_(incremental) {}

  /// Plans consecutive windows of `window_sec` covering the forecast
  /// series (rate sampled as the mean over each window; the plan must
  /// also cover the window's *peak* sample). Errors: empty forecast,
  /// non-positive window, or num_threads above exec::kMaxThreads.
  Result<std::vector<WindowPlan>> PlanHorizon(const TimeSeries& rate_forecast,
                                              double window_sec) const;

  /// Plans one window for the given demand rate. Thread-safe: const
  /// state only, with solver state local to the call.
  Result<WindowPlan> PlanWindow(SimTime start, SimTime end,
                                double records_per_sec) const;

 private:
  /// Shared window solve: applies the stall knobs when `use_stall`,
  /// optionally seeds the solver with `seed` plus per-objective
  /// budget-extreme anchors, merges the previous window's re-validated
  /// front (`carry_front`) into this window's polished front, and
  /// (when `final_population` is non-null) hands back the final
  /// population for warm-chaining.
  Result<WindowPlan> PlanWindowImpl(
      SimTime start, SimTime end, double records_per_sec,
      const std::vector<std::vector<double>>* seed,
      const std::vector<ProvisioningPlan>* carry_front,
      std::vector<std::vector<double>>* final_population,
      bool use_stall) const;

  ResourceShareRequest base_;
  DemandModel model_;
  opt::Nsga2Config solver_;
  size_t num_threads_;
  IncrementalPlanning incremental_;
};

}  // namespace flower::core

#endif  // FLOWER_CORE_WINDOWED_SHARE_H_
