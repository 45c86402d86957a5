#ifndef FLOWER_CORE_RESOURCE_SHARE_H_
#define FLOWER_CORE_RESOURCE_SHARE_H_

#include <string>
#include <vector>

#include "core/layer.h"
#include "obs/metrics_registry.h"
#include "opt/nsga2.h"
#include "opt/problem.h"
#include "pricing/price_book.h"

namespace flower::core {

/// A linear dependency/business constraint over the three per-layer
/// resource amounts:  c_I·r_I + c_A·r_A + c_S·r_S  <=  rhs.
/// (>= constraints are expressed by negating all coefficients.)
/// The paper's Fig. 4 example uses: 5·r_A >= r_I, 2·r_A <= r_I,
/// 2·r_I <= r_S.
struct LinearConstraint {
  double coeff[kNumLayers] = {0.0, 0.0, 0.0};
  double rhs = 0.0;
  std::string label;

  /// Convenience builders for the common two-term forms.
  static LinearConstraint AtMost(Layer a, double ca, Layer b, double cb,
                                 double rhs, std::string label = "");
  /// ca·r_a >= cb·r_b  (i.e.  cb·r_b − ca·r_a <= 0).
  static LinearConstraint AtLeast(Layer a, double ca, Layer b, double cb,
                                  std::string label = "");
};

/// Per-layer decision-variable bounds (integer resource counts).
struct LayerBounds {
  double min = 1.0;
  double max = 100.0;
};

/// How constraints are fed to NSGA-II (ablation in bench/fig4_pareto).
enum class ConstraintHandling {
  /// Deb's constrained-domination (the default, what the solver is
  /// designed for).
  kConstrainedDomination,
  /// Static penalty subtracted from every objective.
  kPenalty,
};

/// Inputs of the resource share analysis (paper §3.2, Eq. 3–5).
struct ResourceShareRequest {
  /// Budget per hour in USD (Eq. 4's Bud_t for a one-hour window).
  double hourly_budget_usd = 10.0;
  /// Unit prices of the three layers' resources ($/unit-hour), taken
  /// from a PriceBook by the convenience constructor.
  double unit_price[kNumLayers] = {0.015, 0.10, 0.00065};
  LayerBounds bounds[kNumLayers];
  /// Dependency constraints learned by the DependencyAnalyzer plus any
  /// user-supplied business rules.
  std::vector<LinearConstraint> constraints;
  ConstraintHandling handling = ConstraintHandling::kConstrainedDomination;
  double penalty_weight = 1000.0;  ///< Used only with kPenalty.

  /// Fills unit prices from a price book (shard, instance, WCU).
  void SetPricesFrom(const pricing::PriceBook& book);
};

/// One Pareto-optimal provisioning plan: the simultaneous resource
/// shares of the three layers (Fig. 4's solution points).
struct ProvisioningPlan {
  double shares[kNumLayers] = {0.0, 0.0, 0.0};
  double hourly_cost_usd = 0.0;

  double ingestion() const { return shares[0]; }
  double analytics() const { return shares[1]; }
  double storage() const { return shares[2]; }
};

/// The multi-objective provisioning problem (Eq. 3–5) as an
/// opt::Problem: maximize (r_I, r_A, r_S) subject to the budget and the
/// linear dependency constraints. Exposed publicly so the exhaustive
/// oracle and the benches can evaluate the same problem object.
class ShareProblem final : public opt::Problem {
 public:
  explicit ShareProblem(ResourceShareRequest request);

  const std::vector<opt::VariableSpec>& variables() const override {
    return variables_;
  }
  size_t num_objectives() const override { return kNumLayers; }
  size_t num_constraints() const override;
  void Evaluate(const std::vector<double>& x,
                std::vector<double>* objectives,
                std::vector<double>* violations) const override;

  /// Hourly cost of a share vector under the request's unit prices.
  double HourlyCost(const std::vector<double>& x) const;
  const ResourceShareRequest& request() const { return request_; }

 private:
  ResourceShareRequest request_;
  std::vector<opt::VariableSpec> variables_;
};

/// Result of one analysis run.
struct ResourceShareResult {
  std::vector<ProvisioningPlan> pareto_plans;
  size_t evaluations = 0;
  /// Final solver population (decision vectors) — feed through
  /// IncrementalPlanning::warm_start / Nsga2Config::seed_population to
  /// warm the next solve. Empty for the exhaustive oracle.
  std::vector<std::vector<double>> final_population;
  /// True when the convergence early-exit stopped the solver before
  /// its configured generation count.
  bool early_exit = false;
  /// True when AnalyzeIncremental served this result from the plan
  /// cache without running the solver (evaluations is then 0).
  bool cache_hit = false;
};

/// Knobs of the incremental planning engine (warm starts, plan cache,
/// convergence early-exit). Everything off by default reproduces the
/// cold-start behavior bit for bit.
struct IncrementalPlanning {
  /// Seed each solve with the previous solve's final population
  /// (clamped to the new bounds by the solver's repair step).
  bool warm_start = false;
  /// Memoize the last front keyed by a canonical fingerprint of
  /// (budget, prices, bounds, constraints, handling, solver config);
  /// an identical request returns the memoized result without running
  /// the solver, any drift forces a fresh solve.
  bool cache = false;
  /// Forwarded to Nsga2Config::stall_generations / stall_tolerance
  /// (0 = run the full generation budget).
  size_t stall_generations = 0;
  double stall_tolerance = 1e-4;
  /// Fraction of the population seeded from the carried-over solutions
  /// on a warm start; the remainder is drawn fresh by the solver.
  /// Seeding everything narrows exploration and can shrink the front,
  /// so partial injection is the default. Clamped to [0, 1].
  double seed_fraction = 0.5;
};

/// Cumulative incremental-planning counters (mirrored into the metrics
/// registry as planner.* when one is attached).
struct PlannerCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t warm_starts = 0;
  uint64_t early_exits = 0;
  uint64_t evaluations = 0;
};

/// Resource share analysis (paper §3.2): searches the provisioning-plan
/// space with NSGA-II and returns the Pareto-optimal plans; the caller
/// (or `PickBalancedPlan`) selects the one to enact. The per-layer
/// *maximum* shares across the front become the controllers' actuation
/// upper bounds.
class ResourceShareAnalyzer {
 public:
  explicit ResourceShareAnalyzer(opt::Nsga2Config solver_config = {},
                                 IncrementalPlanning incremental = {})
      : solver_config_(std::move(solver_config)), incremental_(incremental) {}

  /// Runs NSGA-II on the request (always a cold solve; the incremental
  /// knobs only affect AnalyzeIncremental).
  Result<ResourceShareResult> Analyze(const ResourceShareRequest& request) const;

  /// Incremental analysis across successive control periods: consults
  /// the plan cache (when enabled) before solving, warm-starts the
  /// solver from the previous period's final population (when enabled),
  /// and applies the convergence early-exit knobs. With a default
  /// IncrementalPlanning this is exactly Analyze plus counter upkeep.
  /// The cache and the warm-start population belong to this analyzer,
  /// so each flow plans through its own (every ElasticityManager owns
  /// one).
  Result<ResourceShareResult> AnalyzeIncremental(
      const ResourceShareRequest& request);

  /// Canonical plan-cache key: a textual fingerprint of every
  /// result-affecting field of (request, solver config) — budget,
  /// prices, bounds, constraint coefficients, handling, penalty
  /// weight, population/generations/operator parameters, seed, and the
  /// stall knobs. Deliberately excludes num_threads (results are
  /// thread-count-invariant), the observer, and the seed population
  /// (warm starts refine convergence speed, not the problem).
  static std::string Fingerprint(const ResourceShareRequest& request,
                                 const opt::Nsga2Config& solver);

  /// Mirrors the planner.* counters into `registry` (cache_hits,
  /// cache_misses, warm_starts, early_exits, evaluations). `registry`
  /// must outlive the analyzer; nullptr detaches. `labels` is stamped
  /// on every mirrored instrument — fleet runs pass {{"tenant", id}} so
  /// tenants sharing a registry keep distinct planner series.
  void SetMetricsRegistry(obs::MetricsRegistry* registry,
                          obs::LabelSet labels = {});

  /// Cumulative counters since construction (local mirror, available
  /// without a registry).
  const PlannerCounters& counters() const { return counters_; }
  const IncrementalPlanning& incremental() const { return incremental_; }

  /// Exact Pareto front by exhaustive integer-grid enumeration (test
  /// oracle / small problems). Errors when the grid is too large.
  Result<ResourceShareResult> AnalyzeExhaustive(
      const ResourceShareRequest& request) const;

  /// Picks the plan maximizing the minimum bound-normalized share —
  /// Flower's automatic choice when the user does not pick manually.
  static Result<ProvisioningPlan> PickBalancedPlan(
      const ResourceShareResult& result, const ResourceShareRequest& request);

  /// Per-layer maximum share across the Pareto front — the "upper bound
  /// resource shares" handed to the per-layer controllers (§2).
  static Result<ProvisioningPlan> MaxShares(const ResourceShareResult& result);

 private:
  /// Shared solve path of Analyze / AnalyzeIncremental.
  static Result<ResourceShareResult> Run(const ResourceShareRequest& request,
                                         const opt::Nsga2Config& config);

  opt::Nsga2Config solver_config_;
  IncrementalPlanning incremental_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::LabelSet planner_labels_;
  PlannerCounters counters_;
  /// Warm-start memory: the previous solve's final population.
  std::vector<std::vector<double>> last_population_;
  /// Single-entry plan cache (valid when cached_fingerprint_ is
  /// non-empty).
  std::string cached_fingerprint_;
  ResourceShareResult cached_result_;
};

}  // namespace flower::core

#endif  // FLOWER_CORE_RESOURCE_SHARE_H_
