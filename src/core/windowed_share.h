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
  /// hardware concurrency). Each window's NSGA-II run is one cold solve,
  /// independent and seeded from the solver config, so the planned
  /// horizon is bit-identical at any thread count; errors propagate
  /// first-wins. Window-level threading composes multiplicatively with
  /// `solver.num_threads` (each window spawns its own solver pool), so
  /// enable one level or the other, not both.
  WindowedShareAnalyzer(ResourceShareRequest base_request, DemandModel model,
                        opt::Nsga2Config solver = {}, size_t num_threads = 1)
      : base_(std::move(base_request)),
        model_(model),
        solver_(std::move(solver)),
        num_threads_(num_threads) {}

  /// Plans consecutive windows of `window_sec` covering the forecast
  /// series, each for its window's *peak* forecast sample. Errors:
  /// empty forecast, non-positive window, or num_threads above
  /// exec::kMaxThreads.
  Result<std::vector<WindowPlan>> PlanHorizon(const TimeSeries& rate_forecast,
                                              double window_sec) const;

  /// Plans one window for the given demand rate. Thread-safe: const
  /// state only, with solver state local to the call.
  Result<WindowPlan> PlanWindow(SimTime start, SimTime end,
                                double records_per_sec) const;

 private:
  ResourceShareRequest base_;
  DemandModel model_;
  opt::Nsga2Config solver_;
  size_t num_threads_;
};

}  // namespace flower::core

#endif  // FLOWER_CORE_WINDOWED_SHARE_H_
