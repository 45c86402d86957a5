#include "core/resource_share.h"

#include <gtest/gtest.h>

#include <set>

namespace flower::core {
namespace {

// The paper's Fig. 4 scenario: maximize (shards, VMs, WCU) subject to a
// budget and the dependency constraints 5·r_A >= r_I, 2·r_A <= r_I,
// 2·r_I <= r_S.
ResourceShareRequest Fig4Request(double budget = 2.0) {
  ResourceShareRequest req;
  req.hourly_budget_usd = budget;
  req.unit_price[0] = 0.015;    // Shard-hour.
  req.unit_price[1] = 0.10;     // VM-hour.
  req.unit_price[2] = 0.00065;  // WCU-hour.
  req.bounds[0] = {1.0, 40.0};
  req.bounds[1] = {1.0, 20.0};
  req.bounds[2] = {1.0, 400.0};
  req.constraints.push_back(LinearConstraint::AtLeast(
      Layer::kAnalytics, 5.0, Layer::kIngestion, 1.0, "5*vms >= shards"));
  req.constraints.push_back(LinearConstraint::AtMost(
      Layer::kAnalytics, 2.0, Layer::kIngestion, -1.0, 0.0,
      "2*vms <= shards"));
  req.constraints.push_back(LinearConstraint::AtMost(
      Layer::kIngestion, 2.0, Layer::kStorage, -1.0, 0.0,
      "2*shards <= wcu"));
  return req;
}

TEST(LinearConstraintTest, AtLeastEncodesCorrectly) {
  // 5·r_A >= r_I  ⇔  r_I − 5·r_A <= 0.
  auto c = LinearConstraint::AtLeast(Layer::kAnalytics, 5.0,
                                     Layer::kIngestion, 1.0);
  EXPECT_DOUBLE_EQ(c.coeff[0], 1.0);   // Ingestion.
  EXPECT_DOUBLE_EQ(c.coeff[1], -5.0);  // Analytics.
  EXPECT_DOUBLE_EQ(c.rhs, 0.0);
}

TEST(ShareProblemTest, EvaluateComputesViolations) {
  ShareProblem p(Fig4Request(2.0));
  std::vector<double> obj, viol;
  // Feasible point: 10 shards, 4 VMs, 100 WCU.
  // Cost = 0.15 + 0.40 + 0.065 = 0.615 <= 2. Constraints:
  // 10 - 20 <= 0 ok; 8 - 10 <= 0 ok; 20 - 100 <= 0 ok.
  p.Evaluate({10, 4, 100}, &obj, &viol);
  EXPECT_EQ(obj, (std::vector<double>{10, 4, 100}));
  ASSERT_EQ(viol.size(), 4u);
  for (double v : viol) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_NEAR(p.HourlyCost({10, 4, 100}), 0.615, 1e-12);

  // Violating 2*vms <= shards: 2 shards, 4 VMs.
  p.Evaluate({2, 4, 100}, &obj, &viol);
  EXPECT_GT(viol[2], 0.0);  // 8 - 2 = 6.

  // Violating the budget.
  p.Evaluate({40, 20, 400}, &obj, &viol);
  EXPECT_GT(viol[0], 0.0);
}

TEST(ResourceShareAnalyzerTest, ExhaustiveFrontRespectsAllConstraints) {
  ResourceShareAnalyzer analyzer;
  auto res = analyzer.AnalyzeExhaustive(Fig4Request(2.0));
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->pareto_plans.empty());
  for (const ProvisioningPlan& p : res->pareto_plans) {
    EXPECT_LE(p.hourly_cost_usd, 2.0 + 1e-9);
    EXPECT_LE(p.ingestion(), 5.0 * p.analytics() + 1e-9);
    EXPECT_LE(2.0 * p.analytics(), p.ingestion() + 1e-9);
    EXPECT_LE(2.0 * p.ingestion(), p.storage() + 1e-9);
  }
}

TEST(ResourceShareAnalyzerTest, Nsga2FrontIsSubsetOfOracle) {
  ResourceShareAnalyzer oracle_analyzer;
  auto oracle = oracle_analyzer.AnalyzeExhaustive(Fig4Request(2.0));
  ASSERT_TRUE(oracle.ok());
  std::set<std::tuple<double, double, double>> oracle_set;
  for (const auto& p : oracle->pareto_plans) {
    oracle_set.insert({p.ingestion(), p.analytics(), p.storage()});
  }

  // Solver quality is a distribution over seeds, so gate on a
  // multi-seed aggregate (plus a per-seed floor) instead of a single
  // seed's draw: a single fixed seed turns any legitimate change to the
  // RNG stream layout into a coin-flip test failure.
  size_t total_plans = 0;
  size_t total_on_front = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    opt::Nsga2Config solver;
    solver.population_size = 100;
    solver.generations = 150;
    solver.seed = seed;
    ResourceShareAnalyzer analyzer(solver);
    auto res = analyzer.Analyze(Fig4Request(2.0));
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->pareto_plans.empty());
    size_t on_front = 0;
    for (const auto& p : res->pareto_plans) {
      if (oracle_set.count({p.ingestion(), p.analytics(), p.storage()})) {
        ++on_front;
      }
    }
    // Per seed: most returned plans are truly Pareto-optimal, and the
    // solver discovers a sizeable fraction of the 28-point front.
    EXPECT_GE(static_cast<double>(on_front),
              0.7 * static_cast<double>(res->pareto_plans.size()))
        << "seed " << seed;
    EXPECT_GE(res->pareto_plans.size(), oracle->pareto_plans.size() / 3)
        << "seed " << seed;
    total_plans += res->pareto_plans.size();
    total_on_front += on_front;
  }
  // In aggregate, the final fronts are near-exact.
  EXPECT_GE(static_cast<double>(total_on_front),
            0.85 * static_cast<double>(total_plans));
}

TEST(ResourceShareAnalyzerTest, PenaltyHandlingAlsoFindsFeasiblePlans) {
  ResourceShareRequest req = Fig4Request(2.0);
  req.handling = ConstraintHandling::kPenalty;
  opt::Nsga2Config solver;
  solver.population_size = 100;
  solver.generations = 150;
  ResourceShareAnalyzer analyzer(solver);
  auto res = analyzer.Analyze(req);
  ASSERT_TRUE(res.ok());
  for (const ProvisioningPlan& p : res->pareto_plans) {
    EXPECT_LE(p.hourly_cost_usd, 2.0 + 1e-9);
    EXPECT_LE(p.ingestion(), 5.0 * p.analytics() + 1e-9);
  }
}

TEST(ResourceShareAnalyzerTest, TightBudgetShrinksTheFront) {
  ResourceShareAnalyzer analyzer;
  auto rich = analyzer.AnalyzeExhaustive(Fig4Request(2.0));
  auto poor = analyzer.AnalyzeExhaustive(Fig4Request(0.5));
  ASSERT_TRUE(rich.ok());
  ASSERT_TRUE(poor.ok());
  double rich_max = 0.0, poor_max = 0.0;
  for (const auto& p : rich->pareto_plans) {
    rich_max = std::max(rich_max, p.analytics());
  }
  for (const auto& p : poor->pareto_plans) {
    poor_max = std::max(poor_max, p.analytics());
  }
  EXPECT_GT(rich_max, poor_max);
}

TEST(ResourceShareAnalyzerTest, PickBalancedPlanPrefersEvenShares) {
  ResourceShareAnalyzer analyzer;
  auto res = analyzer.AnalyzeExhaustive(Fig4Request(2.0));
  ASSERT_TRUE(res.ok());
  auto plan = ResourceShareAnalyzer::PickBalancedPlan(*res, Fig4Request(2.0));
  ASSERT_TRUE(plan.ok());
  // The balanced plan is a member of the front.
  bool found = false;
  for (const auto& p : res->pareto_plans) {
    if (p.ingestion() == plan->ingestion() &&
        p.analytics() == plan->analytics() &&
        p.storage() == plan->storage()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ResourceShareAnalyzerTest, MaxSharesDominatesEveryPlan) {
  ResourceShareAnalyzer analyzer;
  auto res = analyzer.AnalyzeExhaustive(Fig4Request(2.0));
  ASSERT_TRUE(res.ok());
  auto max_shares = ResourceShareAnalyzer::MaxShares(*res);
  ASSERT_TRUE(max_shares.ok());
  for (const auto& p : res->pareto_plans) {
    EXPECT_LE(p.ingestion(), max_shares->ingestion());
    EXPECT_LE(p.analytics(), max_shares->analytics());
    EXPECT_LE(p.storage(), max_shares->storage());
  }
}

TEST(ResourceShareAnalyzerTest, EmptyFrontHandling) {
  ResourceShareResult empty;
  EXPECT_FALSE(
      ResourceShareAnalyzer::PickBalancedPlan(empty, Fig4Request()).ok());
  EXPECT_FALSE(ResourceShareAnalyzer::MaxShares(empty).ok());
}

TEST(ResourceShareRequestTest, SetPricesFromBook) {
  pricing::PriceBook book;
  book.SetHourlyPrice(pricing::ResourceKind::kKinesisShard, 0.02);
  ResourceShareRequest req;
  req.SetPricesFrom(book);
  EXPECT_DOUBLE_EQ(req.unit_price[0], 0.02);
  EXPECT_DOUBLE_EQ(req.unit_price[1],
                   book.HourlyPrice(pricing::ResourceKind::kEc2Instance));
}

opt::Nsga2Config SmallSolver(uint64_t seed = 42) {
  opt::Nsga2Config solver;
  solver.population_size = 40;
  solver.generations = 40;
  solver.seed = seed;
  return solver;
}

TEST(IncrementalPlanningTest, DefaultKnobsMatchColdAnalyze) {
  // With every incremental knob off, AnalyzeIncremental is Analyze plus
  // counter upkeep — byte-identical plans.
  ResourceShareAnalyzer cold(SmallSolver());
  ResourceShareAnalyzer inc(SmallSolver(), IncrementalPlanning{});
  auto a = cold.Analyze(Fig4Request(2.0));
  auto b = inc.AnalyzeIncremental(Fig4Request(2.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->pareto_plans.size(), b->pareto_plans.size());
  for (size_t i = 0; i < a->pareto_plans.size(); ++i) {
    for (int l = 0; l < kNumLayers; ++l) {
      EXPECT_EQ(a->pareto_plans[i].shares[l], b->pareto_plans[i].shares[l]);
    }
  }
  EXPECT_EQ(a->evaluations, b->evaluations);
  EXPECT_FALSE(b->cache_hit);
  EXPECT_EQ(inc.counters().cache_hits, 0u);
  EXPECT_EQ(inc.counters().warm_starts, 0u);
}

TEST(IncrementalPlanningTest, CacheHitSkipsTheSolver) {
  IncrementalPlanning knobs;
  knobs.cache = true;
  ResourceShareAnalyzer analyzer(SmallSolver(), knobs);

  auto first = analyzer.AnalyzeIncremental(Fig4Request(2.0));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->evaluations, 0u);
  EXPECT_EQ(analyzer.counters().cache_misses, 1u);
  EXPECT_EQ(analyzer.counters().cache_hits, 0u);
  uint64_t evals_after_first = analyzer.counters().evaluations;

  auto second = analyzer.AnalyzeIncremental(Fig4Request(2.0));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->evaluations, 0u);  // No solver run at all.
  EXPECT_EQ(analyzer.counters().cache_hits, 1u);
  EXPECT_EQ(analyzer.counters().cache_misses, 1u);
  // A hit spends no objective evaluations.
  EXPECT_EQ(analyzer.counters().evaluations, evals_after_first);
  // And serves the identical front.
  ASSERT_EQ(first->pareto_plans.size(), second->pareto_plans.size());
  for (size_t i = 0; i < first->pareto_plans.size(); ++i) {
    for (int l = 0; l < kNumLayers; ++l) {
      EXPECT_EQ(first->pareto_plans[i].shares[l],
                second->pareto_plans[i].shares[l]);
    }
  }
}

TEST(IncrementalPlanningTest, AnyFingerprintFieldChangeForcesAMiss) {
  // Every result-affecting field of (request, solver) must alter the
  // canonical fingerprint; each mutator below flips exactly one field.
  const ResourceShareRequest base_req = Fig4Request(2.0);
  const opt::Nsga2Config base_solver = SmallSolver();
  const std::string base = ResourceShareAnalyzer::Fingerprint(
      base_req, base_solver);

  struct Mutation {
    const char* what;
    std::function<void(ResourceShareRequest*, opt::Nsga2Config*)> apply;
  };
  std::vector<Mutation> mutations = {
      {"budget", [](ResourceShareRequest* r, opt::Nsga2Config*) {
         r->hourly_budget_usd += 0.5;
       }},
      {"handling", [](ResourceShareRequest* r, opt::Nsga2Config*) {
         r->handling = ConstraintHandling::kPenalty;
       }},
      {"penalty_weight", [](ResourceShareRequest* r, opt::Nsga2Config*) {
         r->penalty_weight *= 2.0;
       }},
      {"constraint added", [](ResourceShareRequest* r, opt::Nsga2Config*) {
         r->constraints.push_back(LinearConstraint::AtMost(
             Layer::kIngestion, 1.0, Layer::kAnalytics, 0.0, 30.0));
       }},
      {"constraint coeff", [](ResourceShareRequest* r, opt::Nsga2Config*) {
         r->constraints[0].coeff[0] += 1.0;
       }},
      {"constraint rhs", [](ResourceShareRequest* r, opt::Nsga2Config*) {
         r->constraints[0].rhs += 1.0;
       }},
      {"solver seed", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->seed += 1;
       }},
      {"population", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->population_size += 2;
       }},
      {"generations", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->generations += 1;
       }},
      {"crossover_prob", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->crossover_prob *= 0.5;
       }},
      {"mutation_prob", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->mutation_prob = 0.25;
       }},
      {"eta_crossover", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->eta_crossover += 1.0;
       }},
      {"eta_mutation", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->eta_mutation += 1.0;
       }},
      {"stall_generations", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->stall_generations = 7;
       }},
      {"stall_tolerance", [](ResourceShareRequest*, opt::Nsga2Config* s) {
         s->stall_tolerance *= 10.0;
       }},
  };
  for (int layer = 0; layer < kNumLayers; ++layer) {
    mutations.push_back({"unit price", [layer](ResourceShareRequest* r,
                                               opt::Nsga2Config*) {
                           r->unit_price[layer] *= 1.5;
                         }});
    mutations.push_back({"bound min", [layer](ResourceShareRequest* r,
                                              opt::Nsga2Config*) {
                           r->bounds[layer].min += 1.0;
                         }});
    mutations.push_back({"bound max", [layer](ResourceShareRequest* r,
                                              opt::Nsga2Config*) {
                           r->bounds[layer].max -= 1.0;
                         }});
  }
  for (const Mutation& m : mutations) {
    ResourceShareRequest req = base_req;
    opt::Nsga2Config solver = base_solver;
    m.apply(&req, &solver);
    EXPECT_NE(ResourceShareAnalyzer::Fingerprint(req, solver), base)
        << m.what << " must change the fingerprint";
  }
}

TEST(IncrementalPlanningTest, FingerprintIgnoresNonResultFields) {
  // num_threads (thread-count-invariant results), the observer, and the
  // seed population deliberately do not key the cache.
  const ResourceShareRequest req = Fig4Request(2.0);
  opt::Nsga2Config solver = SmallSolver();
  const std::string base = ResourceShareAnalyzer::Fingerprint(req, solver);
  solver.num_threads = 8;
  solver.on_generation = [](const opt::Nsga2GenerationStats&) {};
  solver.seed_population.push_back({1.0, 1.0, 1.0});
  EXPECT_EQ(ResourceShareAnalyzer::Fingerprint(req, solver), base);
}

TEST(IncrementalPlanningTest, ChangedRequestInvalidatesTheCache) {
  IncrementalPlanning knobs;
  knobs.cache = true;
  ResourceShareAnalyzer analyzer(SmallSolver(), knobs);
  ASSERT_TRUE(analyzer.AnalyzeIncremental(Fig4Request(2.0)).ok());
  // A different budget must miss...
  auto res = analyzer.AnalyzeIncremental(Fig4Request(2.5));
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->cache_hit);
  EXPECT_EQ(analyzer.counters().cache_misses, 2u);
  // ...and re-prime the cache for the new request.
  auto again = analyzer.AnalyzeIncremental(Fig4Request(2.5));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  // The original request now misses again (single-entry cache).
  auto back = analyzer.AnalyzeIncremental(Fig4Request(2.0));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->cache_hit);
}

TEST(IncrementalPlanningTest, WarmStartCountsAndStaysFeasible) {
  IncrementalPlanning knobs;
  knobs.warm_start = true;
  knobs.stall_generations = 4;
  ResourceShareAnalyzer analyzer(SmallSolver(), knobs);

  auto first = analyzer.AnalyzeIncremental(Fig4Request(2.0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(analyzer.counters().warm_starts, 0u);  // Nothing to seed yet.
  ASSERT_FALSE(first->final_population.empty());

  // Second period: seeded from the first's final population. The front
  // must still satisfy every constraint.
  auto second = analyzer.AnalyzeIncremental(Fig4Request(2.0));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(analyzer.counters().warm_starts, 1u);
  ASSERT_FALSE(second->pareto_plans.empty());
  for (const ProvisioningPlan& p : second->pareto_plans) {
    EXPECT_LE(p.hourly_cost_usd, 2.0 + 1e-9);
    EXPECT_LE(p.ingestion(), 5.0 * p.analytics() + 1e-9);
    EXPECT_LE(2.0 * p.analytics(), p.ingestion() + 1e-9);
    EXPECT_LE(2.0 * p.ingestion(), p.storage() + 1e-9);
  }
  if (second->early_exit) {
    EXPECT_GE(analyzer.counters().early_exits, 1u);
  }
}

TEST(IncrementalPlanningTest, MetricsRegistryMirrorsCounters) {
  obs::MetricsRegistry registry;
  IncrementalPlanning knobs;
  knobs.cache = true;
  knobs.warm_start = true;
  ResourceShareAnalyzer analyzer(SmallSolver(), knobs);
  analyzer.SetMetricsRegistry(&registry);
  ASSERT_TRUE(analyzer.AnalyzeIncremental(Fig4Request(2.0)).ok());
  ASSERT_TRUE(analyzer.AnalyzeIncremental(Fig4Request(2.0)).ok());
  EXPECT_EQ(registry.GetCounter("planner.cache_misses")->Value(),
            analyzer.counters().cache_misses);
  EXPECT_EQ(registry.GetCounter("planner.cache_hits")->Value(),
            analyzer.counters().cache_hits);
  EXPECT_EQ(registry.GetCounter("planner.evaluations")->Value(),
            analyzer.counters().evaluations);
  EXPECT_EQ(registry.GetCounter("planner.cache_hits")->Value(), 1u);
}

}  // namespace
}  // namespace flower::core
