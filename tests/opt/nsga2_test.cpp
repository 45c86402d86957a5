#include "opt/nsga2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "exec/thread_pool.h"
#include "opt/grid_search.h"
#include "opt/pareto.h"

namespace flower::opt {
namespace {

/// Schaffer's SCH problem (maximization form): maximize
/// f1 = -x^2, f2 = -(x-2)^2 over x in [-10, 10]. The Pareto-optimal
/// set is x in [0, 2].
class SchafferProblem final : public Problem {
 public:
  SchafferProblem() {
    vars_.push_back({"x", -10.0, 10.0, false});
  }
  const std::vector<VariableSpec>& variables() const override { return vars_; }
  size_t num_objectives() const override { return 2; }
  size_t num_constraints() const override { return 0; }
  void Evaluate(const std::vector<double>& x, std::vector<double>* obj,
                std::vector<double>* viol) const override {
    obj->assign({-x[0] * x[0], -(x[0] - 2.0) * (x[0] - 2.0)});
    viol->clear();
  }

 private:
  std::vector<VariableSpec> vars_;
};

/// A constrained integer problem small enough for the exhaustive
/// oracle: maximize (a, b), a,b in [1, 20], subject to a + b <= 15.
class BudgetedPair final : public Problem {
 public:
  BudgetedPair() {
    vars_.push_back({"a", 1.0, 20.0, true});
    vars_.push_back({"b", 1.0, 20.0, true});
  }
  const std::vector<VariableSpec>& variables() const override { return vars_; }
  size_t num_objectives() const override { return 2; }
  size_t num_constraints() const override { return 1; }
  void Evaluate(const std::vector<double>& x, std::vector<double>* obj,
                std::vector<double>* viol) const override {
    obj->assign({x[0], x[1]});
    viol->assign({std::max(0.0, x[0] + x[1] - 15.0)});
  }

 private:
  std::vector<VariableSpec> vars_;
};

/// No feasible point exists: a >= 1 but constraint requires a <= 0.
class InfeasibleProblem final : public Problem {
 public:
  InfeasibleProblem() { vars_.push_back({"a", 1.0, 5.0, true}); }
  const std::vector<VariableSpec>& variables() const override { return vars_; }
  size_t num_objectives() const override { return 1; }
  size_t num_constraints() const override { return 1; }
  void Evaluate(const std::vector<double>& x, std::vector<double>* obj,
                std::vector<double>* viol) const override {
    obj->assign({x[0]});
    viol->assign({x[0]});  // Positive everywhere.
  }

 private:
  std::vector<VariableSpec> vars_;
};

TEST(Nsga2Test, ConfigValidation) {
  SchafferProblem p;
  {
    Nsga2Config cfg;
    cfg.population_size = 3;  // Too small / odd.
    EXPECT_FALSE(Nsga2(cfg).Solve(p).ok());
  }
  {
    Nsga2Config cfg;
    cfg.population_size = 5;  // Odd.
    EXPECT_FALSE(Nsga2(cfg).Solve(p).ok());
  }
  {
    Nsga2Config cfg;
    cfg.generations = 0;
    EXPECT_FALSE(Nsga2(cfg).Solve(p).ok());
  }
  for (size_t threads : {exec::kMaxThreads + 1, size_t{100000}}) {
    Nsga2Config cfg;
    cfg.num_threads = threads;  // Beyond what the OS would start.
    EXPECT_EQ(Nsga2(cfg).Solve(p).status().code(),
              StatusCode::kInvalidArgument)
        << threads;
  }
}

TEST(Nsga2Test, SolvesSchafferFront) {
  Nsga2Config cfg;
  cfg.population_size = 60;
  cfg.generations = 80;
  cfg.seed = 7;
  auto res = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->pareto_front.size(), 10u);
  for (const Solution& s : res->pareto_front) {
    // Pareto set is x in [0, 2]; allow mild numerical slack.
    EXPECT_GE(s.x[0], -0.1);
    EXPECT_LE(s.x[0], 2.1);
  }
  // The front should cover both extremes reasonably well.
  double best_f1 = -std::numeric_limits<double>::infinity();
  double best_f2 = -std::numeric_limits<double>::infinity();
  for (const Solution& s : res->pareto_front) {
    best_f1 = std::max(best_f1, s.objectives[0]);
    best_f2 = std::max(best_f2, s.objectives[1]);
  }
  EXPECT_GT(best_f1, -0.05);  // Near x = 0.
  EXPECT_GT(best_f2, -0.05);  // Near x = 2.
}

TEST(Nsga2Test, DeterministicForFixedSeed) {
  Nsga2Config cfg;
  cfg.population_size = 40;
  cfg.generations = 30;
  cfg.seed = 99;
  auto r1 = Nsga2(cfg).Solve(SchafferProblem());
  auto r2 = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->pareto_front.size(), r2->pareto_front.size());
  for (size_t i = 0; i < r1->pareto_front.size(); ++i) {
    EXPECT_EQ(r1->pareto_front[i].x, r2->pareto_front[i].x);
  }
}

TEST(Nsga2Test, DifferentSeedsBothConverge) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Nsga2Config cfg;
    cfg.population_size = 60;
    cfg.generations = 60;
    cfg.seed = seed;
    auto res = Nsga2(cfg).Solve(SchafferProblem());
    ASSERT_TRUE(res.ok());
    for (const Solution& s : res->pareto_front) {
      EXPECT_GE(s.x[0], -0.2);
      EXPECT_LE(s.x[0], 2.2);
    }
  }
}

TEST(Nsga2Test, IntegerProblemMatchesExhaustiveOracle) {
  BudgetedPair p;
  auto oracle = ExhaustiveParetoFront(p);
  ASSERT_TRUE(oracle.ok());
  // Oracle front: all (a, b) with a + b == 15 → 14 points... but only
  // non-dominated ones: every (a, 15-a) is mutually non-dominated.
  ASSERT_EQ(oracle->size(), 14u);

  Nsga2Config cfg;
  cfg.population_size = 80;
  cfg.generations = 100;
  cfg.seed = 5;
  auto res = Nsga2(cfg).Solve(p);
  ASSERT_TRUE(res.ok());
  // Every NSGA-II front point must be on the true front.
  std::set<std::pair<double, double>> oracle_set;
  for (const Solution& s : *oracle) {
    oracle_set.insert({s.objectives[0], s.objectives[1]});
  }
  for (const Solution& s : res->pareto_front) {
    EXPECT_TRUE(oracle_set.count({s.objectives[0], s.objectives[1]}))
        << "(" << s.objectives[0] << ", " << s.objectives[1]
        << ") not on the true front";
  }
  // And it should find most of the 14 true points.
  EXPECT_GE(res->pareto_front.size(), 10u);
}

/// ZDT1 (Zitzler–Deb–Thiele #1), the standard 30-variable benchmark:
/// minimize f1 = x0, f2 = g(x)·(1 − sqrt(x0/g)) with
/// g = 1 + 9·mean(x1..x29); the true Pareto front has g = 1, i.e.
/// f2 = 1 − sqrt(f1). Expressed here in maximization form (negated).
class Zdt1Problem final : public Problem {
 public:
  Zdt1Problem() {
    for (int i = 0; i < 30; ++i) {
      std::string name(1, 'x');
      name += std::to_string(i);
      vars_.push_back({std::move(name), 0.0, 1.0, false});
    }
  }
  const std::vector<VariableSpec>& variables() const override { return vars_; }
  size_t num_objectives() const override { return 2; }
  size_t num_constraints() const override { return 0; }
  void Evaluate(const std::vector<double>& x, std::vector<double>* obj,
                std::vector<double>* viol) const override {
    double g = 0.0;
    for (size_t i = 1; i < x.size(); ++i) g += x[i];
    g = 1.0 + 9.0 * g / static_cast<double>(x.size() - 1);
    double f1 = x[0];
    double f2 = g * (1.0 - std::sqrt(f1 / g));
    obj->assign({-f1, -f2});
    viol->clear();
  }

 private:
  std::vector<VariableSpec> vars_;
};

TEST(Nsga2Test, ConvergesOnZdt1Benchmark) {
  Nsga2Config cfg;
  cfg.population_size = 100;
  cfg.generations = 250;
  cfg.seed = 3;
  auto res = Nsga2(cfg).Solve(Zdt1Problem());
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->pareto_front.size(), 30u);
  // Quality: mean distance of the found front to the true front
  // f2 = 1 − sqrt(f1) (i.e. g − 1 ≈ 0) should be small.
  double total_gap = 0.0;
  double min_f1 = 1.0, max_f1 = 0.0;
  for (const Solution& s : res->pareto_front) {
    double f1 = -s.objectives[0];
    double f2 = -s.objectives[1];
    double ideal_f2 = 1.0 - std::sqrt(std::max(0.0, f1));
    total_gap += std::fabs(f2 - ideal_f2);
    min_f1 = std::min(min_f1, f1);
    max_f1 = std::max(max_f1, f1);
  }
  double mean_gap =
      total_gap / static_cast<double>(res->pareto_front.size());
  EXPECT_LT(mean_gap, 0.15);       // Converged close to the true front.
  EXPECT_LT(min_f1, 0.05);         // Covers the f1 ≈ 0 extreme...
  EXPECT_GT(max_f1, 0.8);          // ...through to the f1 ≈ 1 extreme.
}

TEST(Nsga2Test, InfeasibleProblemYieldsEmptyFront) {
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 20;
  auto res = Nsga2(cfg).Solve(InfeasibleProblem());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->pareto_front.empty());
  EXPECT_EQ(res->final_population.size(), 20u);
}

TEST(Nsga2Test, EvaluationCountIsPopTimesGenerationsPlusInit) {
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 10;
  auto res = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->evaluations, 20u * 11u);
}

TEST(Nsga2Test, RejectsInvertedBounds) {
  class BadBounds final : public Problem {
   public:
    BadBounds() { vars_.push_back({"x", 5.0, 1.0, false}); }
    const std::vector<VariableSpec>& variables() const override {
      return vars_;
    }
    size_t num_objectives() const override { return 1; }
    size_t num_constraints() const override { return 0; }
    void Evaluate(const std::vector<double>& x, std::vector<double>* obj,
                  std::vector<double>* viol) const override {
      obj->assign({x[0]});
      viol->clear();
    }

   private:
    std::vector<VariableSpec> vars_;
  };
  EXPECT_FALSE(Nsga2(Nsga2Config{}).Solve(BadBounds()).ok());
}

TEST(FastNonDominatedSortTest, RanksLayeredFronts) {
  using internal::Individual;
  auto mk = [](double a, double b) {
    Individual ind;
    ind.sol.objectives = {a, b};
    return ind;
  };
  std::vector<Individual> pop = {mk(3, 3), mk(1, 1), mk(2, 2),
                                 mk(3, 1), mk(1, 3)};
  auto fronts = internal::FastNonDominatedSort(&pop);
  ASSERT_GE(fronts.size(), 3u);
  EXPECT_EQ(pop[0].rank, 0);  // (3,3) dominates everything.
  EXPECT_EQ(pop[2].rank, 1);  // (2,2) dominated only by (3,3).
  EXPECT_EQ(pop[3].rank, 1);  // (3,1) dominated only by (3,3).
  EXPECT_EQ(pop[4].rank, 1);
  EXPECT_EQ(pop[1].rank, 2);  // (1,1) dominated by (2,2) and (3,3).
}

TEST(CrowdingDistanceTest, BoundariesGetInfinity) {
  using internal::Individual;
  auto mk = [](double a, double b) {
    Individual ind;
    ind.sol.objectives = {a, b};
    ind.rank = 0;
    return ind;
  };
  std::vector<Individual> pop = {mk(1, 5), mk(2, 4), mk(3, 3), mk(4, 2),
                                 mk(5, 1)};
  std::vector<size_t> front = {0, 1, 2, 3, 4};
  internal::AssignCrowdingDistance(front, &pop);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[4].crowding));
  EXPECT_FALSE(std::isinf(pop[2].crowding));
  EXPECT_GT(pop[2].crowding, 0.0);
}

TEST(CrowdingDistanceTest, TwoPointFrontAllInfinite) {
  using internal::Individual;
  Individual a, b;
  a.sol.objectives = {1, 2};
  b.sol.objectives = {2, 1};
  std::vector<Individual> pop = {a, b};
  internal::AssignCrowdingDistance({0, 1}, &pop);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[1].crowding));
}

TEST(CrowdingDistanceTest, DuplicateObjectiveFrontHasNoNan) {
  // Regression: a front where every individual carries identical
  // objectives (f_max == f_min in every dimension) used to divide by a
  // zero span; crowding must stay finite-or-inf, never NaN, so the
  // crowded-comparison sort stays a strict weak ordering.
  using internal::Individual;
  auto mk = [] {
    Individual ind;
    ind.sol.objectives = {3.0, 7.0};
    ind.rank = 0;
    return ind;
  };
  std::vector<Individual> pop = {mk(), mk(), mk(), mk(), mk()};
  std::vector<size_t> front = {0, 1, 2, 3, 4};
  internal::AssignCrowdingDistance(front, &pop);
  for (const Individual& ind : pop) {
    EXPECT_FALSE(std::isnan(ind.crowding));
  }
  // Interior individuals collect zero distance; boundaries keep inf.
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[4].crowding));
  EXPECT_EQ(pop[2].crowding, 0.0);
  // The comparator must be safe to sort with (no NaN poisoning).
  std::vector<Individual> sorted = pop;
  std::sort(sorted.begin(), sorted.end(), internal::CrowdedLess);
  EXPECT_EQ(sorted.size(), pop.size());
}

TEST(CrowdingDistanceTest, OneDegenerateObjectiveStillSpreadsOnTheOther) {
  // Only objective 0 is degenerate; objective 1 must still produce a
  // finite, positive interior distance.
  using internal::Individual;
  auto mk = [](double b) {
    Individual ind;
    ind.sol.objectives = {1.0, b};
    ind.rank = 0;
    return ind;
  };
  std::vector<Individual> pop = {mk(0.0), mk(1.0), mk(2.0), mk(3.0)};
  internal::AssignCrowdingDistance({0, 1, 2, 3}, &pop);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[3].crowding));
  EXPECT_FALSE(std::isnan(pop[1].crowding));
  EXPECT_GT(pop[1].crowding, 0.0);
  EXPECT_TRUE(std::isfinite(pop[1].crowding));
}

TEST(BinaryTournamentTest, WorstIndividualNeverWinsAgainstDistinctRival) {
  // Regression: the tournament used to draw competitors *with*
  // replacement, so a == b let the strictly worst individual win a
  // "tournament" against itself. With distinct competitors the unique
  // rank-maximal individual can never win any tournament.
  using internal::Individual;
  std::vector<Individual> pop(8);
  for (size_t i = 0; i < pop.size(); ++i) {
    pop[i].rank = static_cast<int>(i);  // pop[7] is strictly worst.
    pop[i].crowding = 1.0;
  }
  Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    EXPECT_NE(internal::BinaryTournamentIndex(pop, &rng), 7u);
  }
}

TEST(BinaryTournamentTest, SelectionPressureFavorsBetterRanks) {
  // Over many seeded draws, rank-0 individuals must win far more often
  // than uniform sampling would give them.
  using internal::Individual;
  std::vector<Individual> pop(10);
  for (size_t i = 0; i < pop.size(); ++i) {
    pop[i].rank = static_cast<int>(i / 2);  // Two individuals per rank.
    pop[i].crowding = 0.0;
  }
  Rng rng(42);
  int rank0_wins = 0;
  const int kTrials = 5000;
  for (int t = 0; t < kTrials; ++t) {
    size_t w = internal::BinaryTournamentIndex(pop, &rng);
    if (pop[w].rank == 0) ++rank0_wins;
  }
  // Uniform sampling would give rank 0 a 20% share; the tournament
  // gives it P(at least one of two distinct draws is rank 0) ≈ 38%.
  EXPECT_GT(rank0_wins, kTrials * 30 / 100);
}

TEST(BinaryTournamentTest, SingletonPopulationReturnsTheOnlyIndex) {
  using internal::Individual;
  std::vector<Individual> pop(1);
  pop[0].rank = 0;
  Rng rng(7);
  EXPECT_EQ(internal::BinaryTournamentIndex(pop, &rng), 0u);
}

TEST(Nsga2Test, ThreadCountInvariance) {
  // The tentpole determinism contract: the same seed must give a
  // byte-identical Pareto front and identical per-generation telemetry
  // at 1, 4, and 16 threads.
  auto run = [](size_t threads) {
    Nsga2Config cfg;
    cfg.population_size = 40;
    cfg.generations = 25;
    cfg.seed = 2024;
    cfg.num_threads = threads;
    std::vector<Nsga2GenerationStats> stats;
    cfg.on_generation = [&](const Nsga2GenerationStats& s) {
      stats.push_back(s);
    };
    auto res = Nsga2(cfg).Solve(Zdt1Problem());
    EXPECT_TRUE(res.ok());
    return std::make_pair(*res, stats);
  };
  auto [base, base_stats] = run(1);
  for (size_t threads : {4u, 16u}) {
    auto [res, stats] = run(threads);
    ASSERT_EQ(res.pareto_front.size(), base.pareto_front.size())
        << threads << " threads";
    for (size_t i = 0; i < base.pareto_front.size(); ++i) {
      EXPECT_EQ(res.pareto_front[i].x, base.pareto_front[i].x);
      EXPECT_EQ(res.pareto_front[i].objectives,
                base.pareto_front[i].objectives);
    }
    ASSERT_EQ(res.final_population.size(), base.final_population.size());
    for (size_t i = 0; i < base.final_population.size(); ++i) {
      EXPECT_EQ(res.final_population[i].x, base.final_population[i].x);
    }
    ASSERT_EQ(stats.size(), base_stats.size());
    for (size_t i = 0; i < base_stats.size(); ++i) {
      EXPECT_EQ(stats[i].front_size, base_stats[i].front_size);
      EXPECT_EQ(stats[i].evaluations, base_stats[i].evaluations);
      EXPECT_EQ(stats[i].hypervolume, base_stats[i].hypervolume);
    }
  }
}

TEST(Nsga2Test, HardwareThreadCountAlsoDeterministic) {
  // num_threads = 0 (hardware concurrency) must match the 1-thread run.
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 10;
  cfg.seed = 77;
  cfg.num_threads = 1;
  auto serial = Nsga2(cfg).Solve(SchafferProblem());
  cfg.num_threads = 0;
  auto parallel = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->pareto_front.size(), parallel->pareto_front.size());
  for (size_t i = 0; i < serial->pareto_front.size(); ++i) {
    EXPECT_EQ(serial->pareto_front[i].x, parallel->pareto_front[i].x);
  }
}

TEST(Nsga2Test, OnGenerationObserverReportsProgress) {
  SchafferProblem problem;
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 15;
  std::vector<Nsga2GenerationStats> seen;
  cfg.on_generation = [&](const Nsga2GenerationStats& s) {
    seen.push_back(s);
  };
  auto result = Nsga2(cfg).Solve(problem);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(seen.size(), 15u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].generation, i);
    EXPECT_GE(seen[i].front_size, 1u);
    EXPECT_LE(seen[i].front_size, cfg.population_size);
    // Two objectives: hypervolume is tracked and never negative.
    EXPECT_FALSE(std::isnan(seen[i].hypervolume));
    EXPECT_GE(seen[i].hypervolume, 0.0);
  }
  // Evaluations are cumulative and end at the solver total.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i].evaluations, seen[i - 1].evaluations);
  }
  EXPECT_EQ(seen.back().evaluations, result->evaluations);
  // Hypervolume w.r.t. the fixed initial nadir must not degrade from
  // the first reported generation to the last (elitist selection).
  EXPECT_GE(seen.back().hypervolume, seen.front().hypervolume - 1e-9);
}

TEST(Nsga2Test, OnGenerationHypervolumeNanForThreeObjectives) {
  // A trivial 3-objective problem: hypervolume tracking is 2-D only.
  class ThreeObj final : public Problem {
   public:
    ThreeObj() { vars_.push_back({"x", 0.0, 1.0, false}); }
    const std::vector<VariableSpec>& variables() const override {
      return vars_;
    }
    size_t num_objectives() const override { return 3; }
    size_t num_constraints() const override { return 0; }
    void Evaluate(const std::vector<double>& x, std::vector<double>* obj,
                  std::vector<double>* viol) const override {
      obj->assign({x[0], 1.0 - x[0], x[0] * x[0]});
      viol->clear();
    }

   private:
    std::vector<VariableSpec> vars_;
  };
  ThreeObj problem;
  Nsga2Config cfg;
  cfg.population_size = 12;
  cfg.generations = 3;
  size_t calls = 0;
  cfg.on_generation = [&](const Nsga2GenerationStats& s) {
    ++calls;
    EXPECT_TRUE(std::isnan(s.hypervolume));
  };
  ASSERT_TRUE(Nsga2(cfg).Solve(problem).ok());
  EXPECT_EQ(calls, 3u);
}

TEST(Nsga2WarmStartTest, SeedArityMismatchRejected) {
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 5;
  cfg.seed_population.push_back({1.0, 2.0});  // Schaffer has 1 variable.
  auto res = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(Nsga2WarmStartTest, OutOfBoundsSeedsAreRepaired) {
  // Seeds far outside the bounds (and fractional values for integer
  // variables) must be clamped/rounded before evaluation, never crash
  // or leak out-of-range individuals into the population.
  BudgetedPair p;  // a, b integer in [1, 20].
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 3;
  cfg.seed_population = {{-100.0, 3.7}, {55.0, 0.0}, {7.2, 1e9}};
  auto res = Nsga2(cfg).Solve(p);
  ASSERT_TRUE(res.ok());
  for (const Solution& s : res->final_population) {
    for (double v : s.x) {
      EXPECT_GE(v, 1.0);
      EXPECT_LE(v, 20.0);
      EXPECT_DOUBLE_EQ(v, std::round(v));  // Integer variables stay integral.
    }
  }
}

TEST(Nsga2WarmStartTest, OversizedSeedListUsesFirstPopulationSize) {
  // More seeds than population_size: only the first population_size are
  // injected, so appending extra seeds must not change the outcome.
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 15;
  cfg.seed = 11;
  for (int i = 0; i < 20; ++i) {
    cfg.seed_population.push_back({0.1 * i});
  }
  auto base = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 30; ++i) {
    cfg.seed_population.push_back({-5.0 + 0.3 * i});  // Ignored tail.
  }
  auto extra = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(extra.ok());
  ASSERT_EQ(base->pareto_front.size(), extra->pareto_front.size());
  for (size_t i = 0; i < base->pareto_front.size(); ++i) {
    EXPECT_EQ(base->pareto_front[i].x, extra->pareto_front[i].x);
  }
}

TEST(Nsga2WarmStartTest, WarmStartedRunIsThreadCountInvariant) {
  // The determinism contract must survive seeding: a warm-started run
  // is byte-identical at 1, 4, and 16 threads.
  Nsga2Config prior_cfg;
  prior_cfg.population_size = 40;
  prior_cfg.generations = 10;
  prior_cfg.seed = 5;
  auto prior = Nsga2(prior_cfg).Solve(Zdt1Problem());
  ASSERT_TRUE(prior.ok());
  std::vector<std::vector<double>> seeds;
  for (const Solution& s : prior->final_population) seeds.push_back(s.x);

  auto run = [&](size_t threads) {
    Nsga2Config cfg;
    cfg.population_size = 40;
    cfg.generations = 20;
    cfg.seed = 6;
    cfg.num_threads = threads;
    cfg.seed_population = seeds;
    auto res = Nsga2(cfg).Solve(Zdt1Problem());
    EXPECT_TRUE(res.ok());
    return *res;
  };
  Nsga2Result base = run(1);
  for (size_t threads : {4u, 16u}) {
    Nsga2Result res = run(threads);
    ASSERT_EQ(res.pareto_front.size(), base.pareto_front.size())
        << threads << " threads";
    for (size_t i = 0; i < base.pareto_front.size(); ++i) {
      EXPECT_EQ(res.pareto_front[i].x, base.pareto_front[i].x);
      EXPECT_EQ(res.pareto_front[i].objectives,
                base.pareto_front[i].objectives);
    }
    ASSERT_EQ(res.final_population.size(), base.final_population.size());
    for (size_t i = 0; i < base.final_population.size(); ++i) {
      EXPECT_EQ(res.final_population[i].x, base.final_population[i].x);
    }
    EXPECT_EQ(res.evaluations, base.evaluations);
  }
}

TEST(Nsga2WarmStartTest, EmptySeedPopulationIsAColdStart) {
  // An explicitly empty seed list must reproduce the cold run exactly.
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 10;
  cfg.seed = 13;
  auto cold = Nsga2(cfg).Solve(SchafferProblem());
  cfg.seed_population.clear();
  auto warm = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(cold->pareto_front.size(), warm->pareto_front.size());
  for (size_t i = 0; i < cold->pareto_front.size(); ++i) {
    EXPECT_EQ(cold->pareto_front[i].x, warm->pareto_front[i].x);
  }
}

TEST(Nsga2EarlyExitTest, StallExitStopsConvergedRunEarly) {
  // Schaffer converges in tens of generations; with a 200-generation
  // budget and the stall exit armed the run must stop well short of the
  // budget and say so in the result.
  Nsga2Config cfg;
  cfg.population_size = 40;
  cfg.generations = 200;
  cfg.seed = 3;
  cfg.stall_generations = 5;
  auto res = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->early_exit);
  EXPECT_LT(res->generations_run, 200u);
  EXPECT_GE(res->generations_run, 1u);
  // Evaluations account exactly for the generations actually run.
  EXPECT_EQ(res->evaluations, 40u * (res->generations_run + 1));
  // The front is still converged (Pareto set is x in [0, 2]).
  for (const Solution& s : res->pareto_front) {
    EXPECT_GE(s.x[0], -0.2);
    EXPECT_LE(s.x[0], 2.2);
  }
}

TEST(Nsga2EarlyExitTest, DisabledStallRunsFullBudget) {
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 30;
  cfg.stall_generations = 0;
  auto res = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->early_exit);
  EXPECT_EQ(res->generations_run, 30u);
}

TEST(Nsga2EarlyExitTest, ExitGenerationIsThreadCountInvariant) {
  // The stall detector runs on the coordinator thread over the
  // deterministic front, so the exit generation must not move with the
  // thread count.
  auto run = [](size_t threads) {
    Nsga2Config cfg;
    cfg.population_size = 40;
    cfg.generations = 150;
    cfg.seed = 21;
    cfg.num_threads = threads;
    cfg.stall_generations = 4;
    auto res = Nsga2(cfg).Solve(SchafferProblem());
    EXPECT_TRUE(res.ok());
    return *res;
  };
  Nsga2Result base = run(1);
  EXPECT_TRUE(base.early_exit);
  for (size_t threads : {4u, 16u}) {
    Nsga2Result res = run(threads);
    EXPECT_EQ(res.early_exit, base.early_exit) << threads << " threads";
    EXPECT_EQ(res.generations_run, base.generations_run)
        << threads << " threads";
    EXPECT_EQ(res.evaluations, base.evaluations);
    ASSERT_EQ(res.pareto_front.size(), base.pareto_front.size());
    for (size_t i = 0; i < base.pareto_front.size(); ++i) {
      EXPECT_EQ(res.pareto_front[i].x, base.pareto_front[i].x);
    }
  }
}

TEST(Nsga2EarlyExitTest, ObserverReportsStalledGenerations) {
  Nsga2Config cfg;
  cfg.population_size = 40;
  cfg.generations = 200;
  cfg.seed = 3;
  cfg.stall_generations = 5;
  std::vector<Nsga2GenerationStats> seen;
  cfg.on_generation = [&](const Nsga2GenerationStats& s) {
    seen.push_back(s);
  };
  auto res = Nsga2(cfg).Solve(SchafferProblem());
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->early_exit);
  ASSERT_EQ(seen.size(), res->generations_run);
  // The last reported generation carries the full stall streak.
  EXPECT_EQ(seen.back().stalled_generations, 5u);
  // The streak only ever grows by one or resets.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i].stalled_generations ==
                    seen[i - 1].stalled_generations + 1 ||
                seen[i].stalled_generations == 0)
        << "generation " << i;
  }
}

}  // namespace
}  // namespace flower::opt
