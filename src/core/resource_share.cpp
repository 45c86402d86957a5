#include "core/resource_share.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "opt/grid_search.h"
#include "opt/pareto.h"

namespace flower::core {

LinearConstraint LinearConstraint::AtMost(Layer a, double ca, Layer b,
                                          double cb, double rhs,
                                          std::string label) {
  LinearConstraint c;
  c.coeff[static_cast<int>(a)] = ca;
  c.coeff[static_cast<int>(b)] = cb;
  c.rhs = rhs;
  c.label = std::move(label);
  return c;
}

LinearConstraint LinearConstraint::AtLeast(Layer a, double ca, Layer b,
                                           double cb, std::string label) {
  // ca·r_a >= cb·r_b  <=>  cb·r_b − ca·r_a <= 0.
  LinearConstraint c;
  c.coeff[static_cast<int>(b)] = cb;
  c.coeff[static_cast<int>(a)] = -ca;
  c.rhs = 0.0;
  c.label = std::move(label);
  return c;
}

void ResourceShareRequest::SetPricesFrom(const pricing::PriceBook& book) {
  unit_price[static_cast<int>(Layer::kIngestion)] =
      book.HourlyPrice(pricing::ResourceKind::kKinesisShard);
  unit_price[static_cast<int>(Layer::kAnalytics)] =
      book.HourlyPrice(pricing::ResourceKind::kEc2Instance);
  unit_price[static_cast<int>(Layer::kStorage)] =
      book.HourlyPrice(pricing::ResourceKind::kDynamoWcu);
}

ShareProblem::ShareProblem(ResourceShareRequest request)
    : request_(std::move(request)) {
  static const char* kNames[kNumLayers] = {"shards", "vms", "wcu"};
  for (int i = 0; i < kNumLayers; ++i) {
    opt::VariableSpec v;
    v.name = kNames[i];
    v.lower = request_.bounds[i].min;
    v.upper = request_.bounds[i].max;
    v.integer = true;
    variables_.push_back(std::move(v));
  }
}

size_t ShareProblem::num_constraints() const {
  if (request_.handling == ConstraintHandling::kPenalty) return 0;
  return 1 + request_.constraints.size();  // Budget + dependencies.
}

double ShareProblem::HourlyCost(const std::vector<double>& x) const {
  double cost = 0.0;
  for (int i = 0; i < kNumLayers; ++i) {
    cost += x[static_cast<size_t>(i)] * request_.unit_price[i];
  }
  return cost;
}

void ShareProblem::Evaluate(const std::vector<double>& x,
                            std::vector<double>* objectives,
                            std::vector<double>* violations) const {
  objectives->assign(x.begin(), x.begin() + kNumLayers);

  // Budget violation (Eq. 4), normalized by the budget so it is
  // commensurate with the dependency violations.
  double cost = HourlyCost(x);
  double budget_violation =
      request_.hourly_budget_usd > 0.0
          ? std::max(0.0, (cost - request_.hourly_budget_usd) /
                              request_.hourly_budget_usd)
          : std::max(0.0, cost);

  // Dependency violations go straight into the output (or the penalty
  // sum) — no intermediate vector, so the solver's steady-state loop
  // stays allocation-free once the caller's buffers are warm.
  violations->clear();
  if (request_.handling == ConstraintHandling::kPenalty) {
    double total = budget_violation;
    for (const LinearConstraint& c : request_.constraints) {
      double lhs = 0.0;
      for (int i = 0; i < kNumLayers; ++i) {
        lhs += c.coeff[i] * x[static_cast<size_t>(i)];
      }
      total += std::max(0.0, lhs - c.rhs);
    }
    for (double& obj : *objectives) {
      obj -= request_.penalty_weight * total;
    }
    return;
  }
  violations->push_back(budget_violation);
  for (const LinearConstraint& c : request_.constraints) {
    double lhs = 0.0;
    for (int i = 0; i < kNumLayers; ++i) {
      lhs += c.coeff[i] * x[static_cast<size_t>(i)];
    }
    violations->push_back(std::max(0.0, lhs - c.rhs));
  }
}

namespace {

ResourceShareResult ToResult(const std::vector<opt::Solution>& front,
                             const ShareProblem& problem,
                             size_t evaluations) {
  ResourceShareResult out;
  out.evaluations = evaluations;
  for (const opt::Solution& s : front) {
    ProvisioningPlan plan;
    for (int i = 0; i < kNumLayers; ++i) {
      plan.shares[i] = s.x[static_cast<size_t>(i)];
    }
    plan.hourly_cost_usd = problem.HourlyCost(s.x);
    out.pareto_plans.push_back(plan);
  }
  return out;
}

}  // namespace

Result<ResourceShareResult> ResourceShareAnalyzer::Run(
    const ResourceShareRequest& request, const opt::Nsga2Config& config) {
  ShareProblem problem(request);
  opt::Nsga2 solver(config);
  FLOWER_ASSIGN_OR_RETURN(opt::Nsga2Result res, solver.Solve(problem));
  ResourceShareResult out;
  if (request.handling == ConstraintHandling::kPenalty) {
    // Under penalty handling every solution is formally "feasible";
    // filter to truly feasible plans by re-checking the constraints.
    ResourceShareRequest strict = request;
    strict.handling = ConstraintHandling::kConstrainedDomination;
    ShareProblem checker(strict);
    std::vector<opt::Solution> feasible;
    for (const opt::Solution& s : res.final_population) {
      std::vector<double> obj, viol;
      checker.Evaluate(s.x, &obj, &viol);
      double tv = 0.0;
      for (double v : viol) tv += v;
      if (tv <= 0.0) {
        opt::Solution f;
        f.x = s.x;
        f.objectives = obj;
        feasible.push_back(std::move(f));
      }
    }
    out = ToResult(opt::ParetoFront(feasible), checker, res.evaluations);
  } else {
    out = ToResult(res.pareto_front, problem, res.evaluations);
  }
  out.early_exit = res.early_exit;
  out.final_population.reserve(res.final_population.size());
  for (opt::Solution& s : res.final_population) {
    out.final_population.push_back(std::move(s.x));
  }
  return out;
}

Result<ResourceShareResult> ResourceShareAnalyzer::Analyze(
    const ResourceShareRequest& request) const {
  return Run(request, solver_config_);
}

Result<ResourceShareResult> ResourceShareAnalyzer::AnalyzeIncremental(
    const ResourceShareRequest& request) {
  opt::Nsga2Config config = solver_config_;
  config.stall_generations = incremental_.stall_generations;
  config.stall_tolerance = incremental_.stall_tolerance;

  auto bump = [this](uint64_t PlannerCounters::*field, const char* name,
                     uint64_t delta) {
    if (delta == 0) return;
    counters_.*field += delta;
    if (registry_ != nullptr) {
      registry_->GetCounter(name, planner_labels_)->Increment(delta);
    }
  };

  std::string fingerprint;
  if (incremental_.cache) {
    fingerprint = Fingerprint(request, config);
    if (fingerprint == cached_fingerprint_ && !cached_fingerprint_.empty()) {
      bump(&PlannerCounters::cache_hits, "planner.cache_hits", 1);
      ResourceShareResult out = cached_result_;
      out.cache_hit = true;
      out.evaluations = 0;  // Nothing was solved for this call.
      return out;
    }
    bump(&PlannerCounters::cache_misses, "planner.cache_misses", 1);
    // Invalidate now; the cache is (re)filled only by a successful
    // solve below, so a failed solve can never be served as a hit.
    cached_fingerprint_.clear();
  }

  if (incremental_.warm_start && !last_population_.empty()) {
    // Partial injection (see IncrementalPlanning::seed_fraction): the
    // prefix of the rank-ordered final population seeds the next solve;
    // the solver tops the rest up with fresh random individuals.
    double frac = std::clamp(incremental_.seed_fraction, 0.0, 1.0);
    size_t max_seeds = static_cast<size_t>(
        std::ceil(frac * static_cast<double>(config.population_size)));
    max_seeds = std::min(max_seeds, last_population_.size());
    config.seed_population.assign(
        last_population_.begin(),
        last_population_.begin() + static_cast<long>(max_seeds));
    bump(&PlannerCounters::warm_starts, "planner.warm_starts", 1);
  }

  FLOWER_ASSIGN_OR_RETURN(ResourceShareResult out, Run(request, config));
  bump(&PlannerCounters::evaluations, "planner.evaluations",
       out.evaluations);
  if (out.early_exit) {
    bump(&PlannerCounters::early_exits, "planner.early_exits", 1);
  }
  if (incremental_.warm_start) last_population_ = out.final_population;
  if (incremental_.cache) {
    cached_result_ = out;
    cached_fingerprint_ = std::move(fingerprint);
  }
  return out;
}

void ResourceShareAnalyzer::SetMetricsRegistry(obs::MetricsRegistry* registry,
                                               obs::LabelSet labels) {
  registry_ = registry;
  planner_labels_ = std::move(labels);
}

std::string ResourceShareAnalyzer::Fingerprint(
    const ResourceShareRequest& request, const opt::Nsga2Config& solver) {
  // Canonical text form: %.17g round-trips doubles exactly, and every
  // field lands in a fixed position, so string equality is problem
  // equality (no hash collisions to reason about).
  std::string fp;
  fp.reserve(256);
  char buf[64];
  auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    fp += buf;
  };
  auto add_u = [&](unsigned long long v) {
    std::snprintf(buf, sizeof(buf), "%llu,", v);
    fp += buf;
  };
  fp += "budget:";
  add(request.hourly_budget_usd);
  fp += "prices:";
  for (int i = 0; i < kNumLayers; ++i) add(request.unit_price[i]);
  fp += "bounds:";
  for (int i = 0; i < kNumLayers; ++i) {
    add(request.bounds[i].min);
    add(request.bounds[i].max);
  }
  fp += "handling:";
  add_u(static_cast<unsigned long long>(request.handling));
  fp += "penalty:";
  add(request.penalty_weight);
  fp += "constraints:";
  for (const LinearConstraint& c : request.constraints) {
    fp += '[';
    for (int i = 0; i < kNumLayers; ++i) add(c.coeff[i]);
    add(c.rhs);
    fp += ']';
  }
  fp += "solver:";
  add_u(solver.population_size);
  add_u(solver.generations);
  add(solver.crossover_prob);
  add(solver.mutation_prob);
  add(solver.eta_crossover);
  add(solver.eta_mutation);
  add_u(solver.seed);
  add_u(solver.stall_generations);
  add(solver.stall_tolerance);
  return fp;
}

Result<ResourceShareResult> ResourceShareAnalyzer::AnalyzeExhaustive(
    const ResourceShareRequest& request) const {
  ResourceShareRequest strict = request;
  strict.handling = ConstraintHandling::kConstrainedDomination;
  ShareProblem problem(strict);
  FLOWER_ASSIGN_OR_RETURN(std::vector<opt::Solution> front,
                          opt::ExhaustiveParetoFront(problem));
  return ToResult(front, problem, 0);
}

Result<ProvisioningPlan> ResourceShareAnalyzer::PickBalancedPlan(
    const ResourceShareResult& result, const ResourceShareRequest& request) {
  if (result.pareto_plans.empty()) {
    return Status::NotFound("PickBalancedPlan: empty Pareto front");
  }
  double best_score = -std::numeric_limits<double>::infinity();
  const ProvisioningPlan* best = nullptr;
  for (const ProvisioningPlan& p : result.pareto_plans) {
    double min_norm = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kNumLayers; ++i) {
      double span = request.bounds[i].max - request.bounds[i].min;
      double norm = span > 0.0
                        ? (p.shares[i] - request.bounds[i].min) / span
                        : 1.0;
      min_norm = std::min(min_norm, norm);
    }
    if (min_norm > best_score) {
      best_score = min_norm;
      best = &p;
    }
  }
  return *best;
}

Result<ProvisioningPlan> ResourceShareAnalyzer::MaxShares(
    const ResourceShareResult& result) {
  if (result.pareto_plans.empty()) {
    return Status::NotFound("MaxShares: empty Pareto front");
  }
  ProvisioningPlan max_plan;
  for (const ProvisioningPlan& p : result.pareto_plans) {
    for (int i = 0; i < kNumLayers; ++i) {
      max_plan.shares[i] = std::max(max_plan.shares[i], p.shares[i]);
    }
    max_plan.hourly_cost_usd =
        std::max(max_plan.hourly_cost_usd, p.hourly_cost_usd);
  }
  return max_plan;
}

}  // namespace flower::core
