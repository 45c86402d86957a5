#ifndef FLOWER_OPT_NSGA2_H_
#define FLOWER_OPT_NSGA2_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "opt/problem.h"

namespace flower::opt {

/// Per-generation solver telemetry, reported through
/// Nsga2Config::on_generation after environmental selection.
struct Nsga2GenerationStats {
  size_t generation = 0;   ///< 0-based generation index.
  size_t front_size = 0;   ///< Rank-0 individuals in the new population.
  size_t evaluations = 0;  ///< Cumulative objective evaluations so far.
  /// Hypervolume of the feasible rank-0 front w.r.t. the nadir of the
  /// initial population; NaN for problems with != 2 objectives.
  double hypervolume = std::numeric_limits<double>::quiet_NaN();
  /// Consecutive generations whose convergence indicator improved by
  /// less than Nsga2Config::stall_tolerance; always 0 when the
  /// early-exit is disabled.
  size_t stalled_generations = 0;
};

/// Tuning parameters of the NSGA-II solver. Defaults follow Deb et al.
/// (TEVC 2002): SBX crossover with eta_c = 15, polynomial mutation with
/// eta_m = 20 and rate 1/n.
struct Nsga2Config {
  size_t population_size = 100;   ///< Must be even and >= 4.
  size_t generations = 250;
  double crossover_prob = 0.9;
  double mutation_prob = -1.0;    ///< < 0 means 1 / num_variables.
  double eta_crossover = 15.0;    ///< SBX distribution index.
  double eta_mutation = 20.0;     ///< Polynomial mutation index.
  uint64_t seed = 42;
  /// Worker threads for the per-generation variation/evaluation fan-out
  /// (0 = hardware concurrency). Results are bit-identical at any
  /// thread count: every offspring pair draws from its own RNG stream
  /// keyed by (seed, generation, pair index), and all reductions run on
  /// the calling thread. With num_threads > 1 the Problem's Evaluate
  /// must be safe to call concurrently (const and stateless suffices).
  size_t num_threads = 1;
  /// Optional warm-start seed population: decision vectors injected
  /// into the initial population in order (a previous solve's
  /// final_population x's, a neighbouring window's plans, ...). Each
  /// seed must have one entry per problem variable (InvalidArgument
  /// otherwise); values are repaired — clamped to the variable bounds,
  /// integers rounded — before evaluation. When more seeds than
  /// population_size are supplied only the first population_size are
  /// used. Remaining slots are filled from the same per-index RNG
  /// streams as a cold start, so warm-started runs stay bit-identical
  /// at any thread count. Empty (the default) is a cold start.
  std::vector<std::vector<double>> seed_population;
  /// Convergence early-exit: stop once this many *consecutive*
  /// generations each improve the convergence indicator by less than
  /// stall_tolerance (relative to the best indicator so far). The
  /// indicator is the exact front hypervolume w.r.t. the initial
  /// population's nadir for 2- and 3-objective problems, and a
  /// front-unchanged check otherwise. Computed on the coordinator
  /// thread from the deterministic front, so the exit generation is
  /// deterministic and thread-count-invariant. 0 (the default)
  /// disables the exit and reproduces the fixed-generation behavior
  /// exactly.
  size_t stall_generations = 0;
  double stall_tolerance = 1e-4;  ///< Relative improvement threshold.
  /// Optional observer invoked once per generation; keeps the solver
  /// free of any telemetry dependency. Always called on the thread that
  /// called Solve, after the generation's parallel section has joined.
  std::function<void(const Nsga2GenerationStats&)> on_generation;
};

/// Outcome of an NSGA-II run.
struct Nsga2Result {
  /// Deduplicated feasible first front of the final population, sorted
  /// lexicographically by objectives.
  std::vector<Solution> pareto_front;
  /// The whole final population (diagnostics / warm starts: feed the
  /// x vectors back through Nsga2Config::seed_population).
  std::vector<Solution> final_population;
  size_t evaluations = 0;
  /// Generations actually run (== config.generations unless the
  /// convergence early-exit fired).
  size_t generations_run = 0;
  /// True when the stall criterion stopped the run early.
  bool early_exit = false;
};

/// NSGA-II (Deb et al. 2002), the solver the paper uses to search the
/// provisioning-plan space (§3.2).
///
/// Implements fast non-dominated sorting, crowding-distance truncation,
/// binary tournament selection under constrained domination, simulated
/// binary crossover, and polynomial mutation. Integer variables are
/// handled by rounding before evaluation. Deterministic for a fixed
/// config, independent of num_threads.
///
/// The steady-state generation loop is allocation-lean: sort/crowding
/// scratch lives in a reusable workspace, environmental selection
/// permutes a persistent parent+offspring arena instead of copying
/// individuals, and all per-generation buffers are reserved up front,
/// so after warm-up the loop performs no heap allocations of its own
/// (bench/perf_micro guards this).
class Nsga2 {
 public:
  explicit Nsga2(Nsga2Config config) : config_(std::move(config)) {}

  /// Runs the solver. Errors: population_size odd or < 4, generations
  /// == 0, num_threads above exec::kMaxThreads, a problem with no
  /// variables or objectives, or a seed population entry whose arity
  /// does not match the problem.
  Result<Nsga2Result> Solve(const Problem& problem) const;

 private:
  Nsga2Config config_;
};

namespace internal {

/// An individual with NSGA-II bookkeeping; exposed for unit tests.
struct Individual {
  Solution sol;
  int rank = -1;
  double crowding = 0.0;
};

/// Reusable scratch for the non-dominated sort, crowding assignment,
/// and environmental selection. Buffers are reserved to their maxima
/// by Reserve(), after which a generation performs no allocations.
struct SortWorkspace {
  /// Pairwise domination relation: bit (p, q) set means p dominates q.
  /// Row-major, `words_per_row` 64-bit words per row.
  std::vector<uint64_t> dominates;
  size_t words_per_row = 0;
  std::vector<int> domination_count;
  /// Fronts of the last sort, concatenated: front i is
  /// front_data[front_offsets[i] .. front_offsets[i + 1]).
  std::vector<size_t> front_data;
  std::vector<size_t> front_offsets;
  /// Index scratch for crowding sorts and crowding truncation.
  std::vector<size_t> order;
  std::vector<size_t> truncate;
  /// Environmental-selection output and arena permutation scratch.
  std::vector<size_t> selected;
  std::vector<size_t> perm;
  std::vector<char> visited;

  /// Pre-sizes every buffer for populations of up to `n` individuals.
  void Reserve(size_t n);
  size_t num_fronts() const { return front_offsets.size() - 1; }
  const size_t* front_begin(size_t i) const {
    return front_data.data() + front_offsets[i];
  }
  size_t front_size(size_t i) const {
    return front_offsets[i + 1] - front_offsets[i];
  }
};

/// Crowded-comparison operator (Deb 2002): lower rank wins; equal rank
/// → larger crowding distance wins.
bool CrowdedLess(const Individual& a, const Individual& b);

/// Binary tournament under the crowded-comparison operator over
/// pop[0..n). Draws two *distinct* competitor indices (collisions are
/// redrawn) so a slot never silently degrades to a single random pick;
/// returns the winning index. Exposed for unit tests.
size_t BinaryTournamentIndex(const Individual* pop, size_t n, Rng* rng);
inline size_t BinaryTournamentIndex(const std::vector<Individual>& pop,
                                    Rng* rng) {
  return BinaryTournamentIndex(pop.data(), pop.size(), rng);
}

/// Fast non-dominated sort over pop[0..n): assigns ranks (0 = best)
/// and fills the workspace's front lists. Allocation-free once the
/// workspace is reserved for n.
void FastNonDominatedSort(Individual* pop, size_t n, SortWorkspace* ws);

/// Convenience wrapper returning the fronts as index lists (tests and
/// one-shot callers).
std::vector<std::vector<size_t>> FastNonDominatedSort(
    std::vector<Individual>* pop);

/// Assigns crowding distance within one front (indices into pop);
/// `order_scratch` is reused between calls. Degenerate objective
/// ranges (f_max == f_min, or non-finite spans) contribute zero
/// distance instead of NaN/Inf.
void AssignCrowdingDistance(const size_t* front, size_t front_len,
                            Individual* pop,
                            std::vector<size_t>* order_scratch);
void AssignCrowdingDistance(const std::vector<size_t>& front,
                            std::vector<Individual>* pop);

}  // namespace internal
}  // namespace flower::opt

#endif  // FLOWER_OPT_NSGA2_H_
