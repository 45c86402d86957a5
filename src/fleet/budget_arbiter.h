#ifndef FLOWER_FLEET_BUDGET_ARBITER_H_
#define FLOWER_FLEET_BUDGET_ARBITER_H_

#include <vector>

#include "common/result.h"
#include "opt/nsga2.h"
#include "opt/problem.h"

namespace flower::fleet {

/// Fleet-level budget arbitration knobs.
struct ArbiterConfig {
  /// The fleet-wide hourly dollar budget divided across tenants.
  double fleet_budget_usd_per_hour = 100.0;
  /// Starvation floor: every tenant with non-zero demand is granted at
  /// least this fraction of min(its demand, budget / active tenants)
  /// before the weighted surplus split. 0 disables the floor.
  double starvation_floor_frac = 0.05;
  /// NSGA-II settings for the split search. FleetManager runs each
  /// arbitration inside a sweep task and sets num_threads to 1; the
  /// solver is bit-identical at any thread count either way.
  opt::Nsga2Config solver;
};

/// One arbitration outcome: per-tenant hourly budgets (indexed like the
/// demand vector passed to Arbitrate).
struct BudgetSplit {
  std::vector<double> grants_usd;
  double total_granted_usd = 0.0;
  /// True iff the split respects the fleet budget (checked against the
  /// config with a 1e-9 relative tolerance). Conservation holds by
  /// construction; the bit exists so callers can assert it cheaply.
  bool conserved = false;
  /// True when the demand fit inside the budget and no solver ran.
  bool uncontended = false;
  size_t evaluations = 0;
};

/// The fleet -> flow level of the hierarchical planner: decides how the
/// fleet budget is split across tenant flows. (The flow -> layer level
/// is each flow's own ResourceShareAnalyzer re-plan, fed the granted
/// budget through ElasticityManager::EnableReplanning's update_request
/// hook.)
///
/// Decision variables are one surplus share x_i in [0, 1] per tenant.
/// Decoding guarantees feasibility for *every* genome, so the solver
/// explores trade-offs instead of fighting constraints:
///
///   floor_i = floor_frac * min(demand_i, B / n_active)   (demand>0)
///   extra_i = weight_i * x_i * (demand_i - floor_i)
///   scale   = min(1, (B - sum floors) / sum extras)
///   grant_i = min(demand_i, floor_i + scale * extra_i)
///
/// so sum grant_i <= B always (conservation) and grant_i > 0 whenever
/// demand_i > 0 (starvation floor). Objectives (maximized): total
/// satisfied demand, worst-tenant satisfaction ratio (fairness), and
/// budget left unspent (economy). The enacted split is picked from the
/// Pareto front deterministically: max fairness, ties broken by max
/// satisfaction, then front order.
class FleetBudgetProblem final : public opt::Problem {
 public:
  FleetBudgetProblem(ArbiterConfig config, std::vector<double> demands,
                     std::vector<double> weights);

  const std::vector<opt::VariableSpec>& variables() const override {
    return variables_;
  }
  size_t num_objectives() const override { return 3; }
  size_t num_constraints() const override { return 0; }
  void Evaluate(const std::vector<double>& x,
                std::vector<double>* objectives,
                std::vector<double>* violations) const override;

  /// Decodes a genome into per-tenant grants (the mapping documented
  /// above). Exposed for tests and for the arbiter's final pick.
  std::vector<double> Decode(const std::vector<double>& x) const;

 private:
  ArbiterConfig config_;
  std::vector<double> demands_;
  std::vector<double> weights_;
  std::vector<double> floors_;
  double floor_sum_ = 0.0;
  std::vector<opt::VariableSpec> variables_;
};

class BudgetArbiter {
 public:
  explicit BudgetArbiter(ArbiterConfig config);

  /// Splits the fleet budget across tenants given their current hourly
  /// dollar demands (estimated spend at full satisfaction) and weights.
  /// Fast paths: an all-zero demand vector grants nothing; total demand
  /// within budget grants every demand outright. Contended demand runs
  /// NSGA-II. Errors: size mismatch, negative demand/weight, or a
  /// solver failure.
  Result<BudgetSplit> Arbitrate(const std::vector<double>& demands,
                                const std::vector<double>& weights);

  /// Same split over an explicit budget instead of the configured
  /// fleet-wide one. Heterogeneous-horizon sweeps arbitrate each
  /// boundary over the *remainder* budget — the fleet budget minus the
  /// grants currently held by tenants not at this boundary — so the
  /// fleet-wide hourly budget stays conserved per overlapping window.
  /// `split.conserved` is checked against `budget_usd_per_hour`.
  Result<BudgetSplit> Arbitrate(const std::vector<double>& demands,
                                const std::vector<double>& weights,
                                double budget_usd_per_hour);

  const ArbiterConfig& config() const { return config_; }

 private:
  ArbiterConfig config_;
};

}  // namespace flower::fleet

#endif  // FLOWER_FLEET_BUDGET_ARBITER_H_
