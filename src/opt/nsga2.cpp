#include "opt/nsga2.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "exec/sub_rng.h"
#include "exec/thread_pool.h"
#include "opt/pareto.h"

namespace flower::opt {

namespace internal {

void SortWorkspace::Reserve(size_t n) {
  size_t words = (n + 63) / 64;
  dominates.reserve(n * words);
  domination_count.reserve(n);
  front_data.reserve(n);
  front_offsets.reserve(n + 1);
  order.reserve(n);
  truncate.reserve(n);
  selected.reserve(n);
  perm.reserve(n);
  visited.reserve(n);
}

bool CrowdedLess(const Individual& a, const Individual& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.crowding > b.crowding;
}

size_t BinaryTournamentIndex(const Individual* pop, size_t n, Rng* rng) {
  size_t a = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  if (n < 2) return a;
  // Draw without replacement: a == b would degrade the slot to a single
  // random pick with no selection pressure at all.
  size_t b = a;
  while (b == a) {
    b = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  }
  return CrowdedLess(pop[a], pop[b]) ? a : b;
}

void FastNonDominatedSort(Individual* pop, size_t n, SortWorkspace* ws) {
  size_t words = (n + 63) / 64;
  ws->words_per_row = words;
  ws->dominates.assign(n * words, 0);
  ws->domination_count.assign(n, 0);
  ws->front_data.clear();
  ws->front_offsets.clear();
  ws->front_offsets.push_back(0);
  if (n == 0) return;
  uint64_t* bits = ws->dominates.data();
  int* cnt = ws->domination_count.data();
  // Constrained domination is antisymmetric, so each unordered pair
  // needs at most two comparisons; the bit row of p lists everything p
  // dominates (ascending when scanned word-by-word, matching the
  // dominated-list order of the textbook formulation).
  for (size_t p = 0; p < n; ++p) {
    for (size_t q = p + 1; q < n; ++q) {
      if (ConstrainedDominates(pop[p].sol, pop[q].sol)) {
        bits[p * words + q / 64] |= uint64_t{1} << (q % 64);
        ++cnt[q];
      } else if (ConstrainedDominates(pop[q].sol, pop[p].sol)) {
        bits[q * words + p / 64] |= uint64_t{1} << (p % 64);
        ++cnt[p];
      }
    }
  }
  for (size_t p = 0; p < n; ++p) {
    if (cnt[p] == 0) {
      pop[p].rank = 0;
      ws->front_data.push_back(p);
    }
  }
  ws->front_offsets.push_back(ws->front_data.size());
  size_t begin = 0;
  size_t end = ws->front_data.size();
  int rank = 0;
  while (begin < end) {
    for (size_t k = begin; k < end; ++k) {
      const uint64_t* row = bits + ws->front_data[k] * words;
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = row[w];
        while (word != 0) {
          size_t q = w * 64 + static_cast<size_t>(std::countr_zero(word));
          word &= word - 1;
          if (--cnt[q] == 0) {
            pop[q].rank = rank + 1;
            ws->front_data.push_back(q);
          }
        }
      }
    }
    begin = end;
    end = ws->front_data.size();
    ++rank;
    if (end > begin) ws->front_offsets.push_back(end);
  }
}

std::vector<std::vector<size_t>> FastNonDominatedSort(
    std::vector<Individual>* pop) {
  SortWorkspace ws;
  ws.Reserve(pop->size());
  FastNonDominatedSort(pop->data(), pop->size(), &ws);
  std::vector<std::vector<size_t>> fronts;
  for (size_t i = 0; i < ws.num_fronts(); ++i) {
    fronts.emplace_back(ws.front_begin(i), ws.front_begin(i) + ws.front_size(i));
  }
  if (fronts.empty()) fronts.emplace_back();
  return fronts;
}

void AssignCrowdingDistance(const size_t* front, size_t front_len,
                            Individual* pop,
                            std::vector<size_t>* order_scratch) {
  if (front_len == 0) return;
  for (size_t k = 0; k < front_len; ++k) pop[front[k]].crowding = 0.0;
  size_t m = pop[front[0]].sol.objectives.size();
  if (front_len <= 2) {
    for (size_t k = 0; k < front_len; ++k) {
      pop[front[k]].crowding = std::numeric_limits<double>::infinity();
    }
    return;
  }
  order_scratch->assign(front, front + front_len);
  auto& order = *order_scratch;
  for (size_t obj = 0; obj < m; ++obj) {
    // Ties broken by index so the boundary choice (and hence the
    // infinities) is stable across platforms and thread counts.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      double oa = pop[a].sol.objectives[obj];
      double ob = pop[b].sol.objectives[obj];
      if (oa != ob) return oa < ob;
      return a < b;
    });
    double lo = pop[order.front()].sol.objectives[obj];
    double hi = pop[order.back()].sol.objectives[obj];
    pop[order.front()].crowding = std::numeric_limits<double>::infinity();
    pop[order.back()].crowding = std::numeric_limits<double>::infinity();
    double span = hi - lo;
    // Degenerate range guard: a front where every individual shares one
    // objective value (span == 0), or a non-finite span, would divide
    // into NaN/Inf crowding and poison the crowded-comparison sort.
    if (!std::isfinite(span) || span <= 0.0) continue;
    for (size_t i = 1; i + 1 < front_len; ++i) {
      double gap = pop[order[i + 1]].sol.objectives[obj] -
                   pop[order[i - 1]].sol.objectives[obj];
      pop[order[i]].crowding += gap / span;
    }
  }
}

void AssignCrowdingDistance(const std::vector<size_t>& front,
                            std::vector<Individual>* pop) {
  std::vector<size_t> scratch;
  AssignCrowdingDistance(front.data(), front.size(), pop->data(), &scratch);
}

}  // namespace internal

namespace {

using internal::Individual;

void Repair(const std::vector<VariableSpec>& specs, std::vector<double>* x) {
  for (size_t i = 0; i < specs.size(); ++i) {
    (*x)[i] = std::clamp((*x)[i], specs[i].lower, specs[i].upper);
    if (specs[i].integer) {
      (*x)[i] = std::clamp(std::round((*x)[i]), specs[i].lower,
                           specs[i].upper);
    }
  }
}

// Repairs and evaluates sol->x in place, reusing the solution's
// objective buffer and a per-thread violation scratch so the
// steady-state loop stays allocation-free (Problem implementations see
// cleared vectors, exactly as if freshly constructed).
void EvaluateInPlace(const Problem& problem, Solution* sol) {
  Repair(problem.variables(), &sol->x);
  thread_local std::vector<double> violations;
  violations.clear();
  sol->objectives.clear();
  problem.Evaluate(sol->x, &sol->objectives, &violations);
  double total = 0.0;
  for (double v : violations) total += std::max(0.0, v);
  sol->total_violation = total;
}

// Simulated binary crossover (SBX) on one gene pair.
void SbxGene(double eta, double lo, double hi, Rng* rng, double* a,
             double* b) {
  if (std::fabs(*a - *b) < 1e-14) return;
  double y1 = std::min(*a, *b), y2 = std::max(*a, *b);
  double u = rng->Uniform();
  auto spread = [&](double beta) {
    double alpha = 2.0 - std::pow(beta, -(eta + 1.0));
    if (u <= 1.0 / alpha) {
      return std::pow(u * alpha, 1.0 / (eta + 1.0));
    }
    return std::pow(1.0 / (2.0 - u * alpha), 1.0 / (eta + 1.0));
  };
  double beta1 = 1.0 + 2.0 * (y1 - lo) / (y2 - y1);
  double beta2 = 1.0 + 2.0 * (hi - y2) / (y2 - y1);
  double c1 = 0.5 * ((y1 + y2) - spread(beta1) * (y2 - y1));
  double c2 = 0.5 * ((y1 + y2) + spread(beta2) * (y2 - y1));
  c1 = std::clamp(c1, lo, hi);
  c2 = std::clamp(c2, lo, hi);
  if (rng->Bernoulli(0.5)) std::swap(c1, c2);
  *a = c1;
  *b = c2;
}

// Polynomial mutation on one gene.
void PolyMutateGene(double eta, double lo, double hi, Rng* rng, double* x) {
  double span = hi - lo;
  if (span <= 0.0) return;
  double u = rng->Uniform();
  double delta;
  double rel1 = (*x - lo) / span;
  double rel2 = (hi - *x) / span;
  if (u < 0.5) {
    double val = 2.0 * u + (1.0 - 2.0 * u) * std::pow(1.0 - rel1, eta + 1.0);
    delta = std::pow(val, 1.0 / (eta + 1.0)) - 1.0;
  } else {
    double val = 2.0 * (1.0 - u) +
                 2.0 * (u - 0.5) * std::pow(1.0 - rel2, eta + 1.0);
    delta = 1.0 - std::pow(val, 1.0 / (eta + 1.0));
  }
  *x = std::clamp(*x + delta * span, lo, hi);
}

// Applies the dest <- src gather `perm` to arena in place, one move per
// element, following permutation cycles. `done` is caller scratch.
void ApplyGather(std::vector<Individual>* arena,
                 const std::vector<size_t>& perm, std::vector<char>* done) {
  size_t total = arena->size();
  done->assign(total, 0);
  for (size_t start = 0; start < total; ++start) {
    if ((*done)[start] || perm[start] == start) {
      (*done)[start] = 1;
      continue;
    }
    Individual tmp = std::move((*arena)[start]);
    size_t d = start;
    while (true) {
      size_t src = perm[d];
      (*done)[d] = 1;
      if (src == start) {
        (*arena)[d] = std::move(tmp);
        break;
      }
      (*arena)[d] = std::move((*arena)[src]);
      d = src;
    }
  }
}

}  // namespace

Result<Nsga2Result> Nsga2::Solve(const Problem& problem) const {
  if (config_.population_size < 4 || config_.population_size % 2 != 0) {
    return Status::InvalidArgument(
        "Nsga2: population_size must be even and >= 4");
  }
  if (config_.generations == 0) {
    return Status::InvalidArgument("Nsga2: generations must be >= 1");
  }
  FLOWER_RETURN_NOT_OK(
      exec::CheckThreadCount(config_.num_threads, "Nsga2: num_threads"));
  const auto& specs = problem.variables();
  if (specs.empty() || problem.num_objectives() == 0) {
    return Status::InvalidArgument(
        "Nsga2: problem needs variables and objectives");
  }
  for (const auto& v : specs) {
    if (!(v.lower <= v.upper)) {
      return Status::InvalidArgument("Nsga2: variable '" + v.name +
                                     "' has inverted bounds");
    }
  }
  for (const auto& seed_x : config_.seed_population) {
    if (seed_x.size() != specs.size()) {
      return Status::InvalidArgument(
          "Nsga2: seed_population entry has " +
          std::to_string(seed_x.size()) + " variables, problem has " +
          std::to_string(specs.size()));
    }
  }
  double mut_prob = config_.mutation_prob >= 0.0
                        ? config_.mutation_prob
                        : 1.0 / static_cast<double>(specs.size());

  const size_t n = config_.population_size;
  const size_t num_obj = problem.num_objectives();
  Nsga2Result result;

  // Determinism contract: every parallel task draws only from its own
  // (seed, stream, index) sub-generator — stream 0 seeds the initial
  // population per individual, stream g+1 seeds generation g per
  // offspring pair — and all selection/reduction runs on this thread.
  // The Pareto front is therefore bit-identical at any thread count.
  exec::ThreadPool pool(config_.num_threads);
  // Both fan-outs are RunTasks sweeps over chunk ids: chunk c covers
  // items [c * grain, min(items, (c + 1) * grain)), about four chunks
  // per thread so stealing evens out unequal evaluation costs. The
  // chunk body is built once, so a sweep allocates nothing.
  struct {
    size_t items = 0;
    size_t grain = 1;
    const std::function<Status(size_t)>* body = nullptr;
  } fan;
  const exec::ThreadPool::TaskBody chunk_body =
      [&fan](uint64_t c, exec::ThreadPool::TaskContext&) -> Status {
    const size_t hi = std::min(fan.items, (c + 1) * fan.grain);
    for (size_t i = c * fan.grain; i < hi; ++i) {
      FLOWER_RETURN_NOT_OK((*fan.body)(i));
    }
    return Status::OK();
  };
  auto fan_out = [&](size_t items,
                     const std::function<Status(size_t)>& body) {
    fan.items = items;
    fan.grain = std::max<size_t>(1, items / (4 * pool.num_threads()));
    fan.body = &body;
    return pool.RunTasks((items + fan.grain - 1) / fan.grain, chunk_body);
  };

  // Persistent parent+offspring arena: parents live in [0, n), each
  // generation's offspring are written into [n, 2n), and environmental
  // selection permutes the arena instead of copying individuals. All
  // sort/crowding/selection scratch lives in `ws`; after the first
  // generation warms the buffers the loop allocates nothing.
  std::vector<Individual> arena(2 * n);
  internal::SortWorkspace ws;
  ws.Reserve(2 * n);

  // Initial population: seeded slots first (repaired to bounds by
  // EvaluateInPlace), then random fill from the same per-index streams
  // as a cold start so warm starts stay thread-count-invariant.
  const size_t num_seeds = std::min(config_.seed_population.size(), n);
  std::function<Status(size_t)> init_body = [&](size_t i) -> Status {
    Solution& sol = arena[i].sol;
    if (i < num_seeds) {
      sol.x = config_.seed_population[i];
    } else {
      Rng rng = exec::SubRng(config_.seed, 0, i);
      sol.x.resize(specs.size());
      for (size_t j = 0; j < specs.size(); ++j) {
        sol.x[j] = rng.Uniform(specs[j].lower, specs[j].upper);
      }
    }
    EvaluateInPlace(problem, &sol);
    return Status::OK();
  };
  FLOWER_RETURN_NOT_OK(fan_out(n, init_body));
  result.evaluations += n;
  internal::FastNonDominatedSort(arena.data(), n, &ws);
  for (size_t fi = 0; fi < ws.num_fronts(); ++fi) {
    internal::AssignCrowdingDistance(ws.front_begin(fi), ws.front_size(fi),
                                     arena.data(), &ws.order);
  }

  // Hypervolume reference: the nadir of the initial population, nudged
  // down so the worst initial point still contributes area. Only 2-
  // objective problems get a hypervolume in the generation stats (the
  // 2D sweep is exact); the convergence early-exit additionally uses an
  // exact 3D hypervolume for 3-objective problems, and a front-change
  // test otherwise.
  const bool stall_on = config_.stall_generations > 0;
  const bool track_hv = num_obj == 2;
  const bool track_hv3 = stall_on && num_obj == 3;
  const bool track_signature = stall_on && !track_hv && !track_hv3;
  double nadir[3] = {0.0, 0.0, 0.0};
  if (track_hv || track_hv3) {
    size_t dims = track_hv ? 2 : 3;
    for (size_t j = 0; j < dims; ++j) {
      double lo = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        lo = std::min(lo, arena[i].sol.objectives[j]);
      }
      nadir[j] = lo - 1e-9 * (1.0 + std::fabs(lo));
    }
  }

  // Pre-sized indicator scratch (the front holds at most n members).
  std::vector<std::pair<double, double>> hv_pairs;
  std::vector<std::array<double, 3>> hv_triples;
  std::vector<std::pair<double, double>> hv3_xy;
  std::vector<double> front_sig, prev_sig;
  if (track_hv) hv_pairs.reserve(n);
  if (track_hv3) {
    hv_triples.reserve(n);
    hv3_xy.reserve(n);
  }
  if (track_signature) {
    front_sig.reserve(n * num_obj);
    prev_sig.reserve(n * num_obj);
  }

  const size_t pairs = n / 2;
  const Individual* parents = arena.data();
  size_t cur_gen = 0;
  // Offspring generation: tournament, crossover, mutation, and
  // evaluation fan out per pair; parents are read-only in the sweep and
  // each pair writes only its two offspring slots. The body is hoisted
  // out of the loop so the per-generation dispatch reuses one
  // std::function (no per-generation closure allocation).
  std::function<Status(size_t)> offspring_body = [&](size_t p) -> Status {
    Rng rng = exec::SubRng(config_.seed, cur_gen + 1, p);
    std::vector<double>& c1 = arena[n + 2 * p].sol.x;
    std::vector<double>& c2 = arena[n + 2 * p + 1].sol.x;
    c1 = parents[internal::BinaryTournamentIndex(parents, n, &rng)].sol.x;
    c2 = parents[internal::BinaryTournamentIndex(parents, n, &rng)].sol.x;
    if (rng.Bernoulli(config_.crossover_prob)) {
      for (size_t j = 0; j < specs.size(); ++j) {
        if (rng.Bernoulli(0.5)) {
          SbxGene(config_.eta_crossover, specs[j].lower, specs[j].upper,
                  &rng, &c1[j], &c2[j]);
        }
      }
    }
    for (auto* child : {&c1, &c2}) {
      for (size_t j = 0; j < specs.size(); ++j) {
        if (rng.Bernoulli(mut_prob)) {
          PolyMutateGene(config_.eta_mutation, specs[j].lower,
                         specs[j].upper, &rng, &(*child)[j]);
        }
      }
    }
    EvaluateInPlace(problem, &arena[n + 2 * p].sol);
    EvaluateInPlace(problem, &arena[n + 2 * p + 1].sol);
    return Status::OK();
  };

  size_t stall_count = 0;
  double best_indicator = 0.0;
  bool have_indicator = false;
  for (size_t gen = 0; gen < config_.generations; ++gen) {
    cur_gen = gen;
    FLOWER_RETURN_NOT_OK(fan_out(pairs, offspring_body));
    result.evaluations += n;

    // Environmental selection over parents + offspring: rank and crowd
    // all 2n arena slots, pick survivor *indices* front by front
    // (crowding-distance truncation on the overflow front), then gather
    // survivors into [0, n) with one move per displaced individual.
    internal::FastNonDominatedSort(arena.data(), 2 * n, &ws);
    for (size_t fi = 0; fi < ws.num_fronts(); ++fi) {
      internal::AssignCrowdingDistance(ws.front_begin(fi), ws.front_size(fi),
                                       arena.data(), &ws.order);
    }
    ws.selected.clear();
    for (size_t fi = 0; fi < ws.num_fronts(); ++fi) {
      const size_t* front = ws.front_begin(fi);
      size_t front_len = ws.front_size(fi);
      if (ws.selected.size() + front_len <= n) {
        ws.selected.insert(ws.selected.end(), front, front + front_len);
      } else {
        ws.truncate.assign(front, front + front_len);
        std::sort(ws.truncate.begin(), ws.truncate.end(),
                  [&](size_t a, size_t b) {
                    if (arena[a].crowding != arena[b].crowding) {
                      return arena[a].crowding > arena[b].crowding;
                    }
                    return a < b;  // Stable truncation under crowding ties.
                  });
        for (size_t idx : ws.truncate) {
          if (ws.selected.size() >= n) break;
          ws.selected.push_back(idx);
        }
      }
      if (ws.selected.size() >= n) break;
    }
    // Gather permutation: dest k < n reads selected[k]; dests [n, 2n)
    // absorb the unselected slots in ascending order.
    ws.visited.assign(2 * n, 0);
    for (size_t k = 0; k < n; ++k) ws.visited[ws.selected[k]] = 1;
    ws.perm.assign(2 * n, 0);
    for (size_t k = 0; k < n; ++k) ws.perm[k] = ws.selected[k];
    size_t spill = n;
    for (size_t src = 0; src < 2 * n; ++src) {
      if (!ws.visited[src]) ws.perm[spill++] = src;
    }
    ApplyGather(&arena, ws.perm, &ws.visited);

    // Generation stats and the convergence indicator both come from one
    // coordinator-side scan of the new parent population, so the
    // early-exit decision is deterministic and thread-count-invariant.
    Nsga2GenerationStats stats;
    stats.generation = gen;
    stats.evaluations = result.evaluations;
    bool early = false;
    if (config_.on_generation || stall_on) {
      hv_pairs.clear();
      hv_triples.clear();
      front_sig.clear();
      for (size_t i = 0; i < n; ++i) {
        const Individual& ind = arena[i];
        if (ind.rank != 0) continue;
        ++stats.front_size;
        if (!ind.sol.feasible()) continue;
        const std::vector<double>& obj = ind.sol.objectives;
        if (track_hv) {
          hv_pairs.emplace_back(obj[0], obj[1]);
        } else if (track_hv3) {
          hv_triples.push_back({obj[0], obj[1], obj[2]});
        } else if (track_signature) {
          front_sig.insert(front_sig.end(), obj.begin(), obj.end());
        }
      }
      double indicator = 0.0;
      bool indicator_is_hv = false;
      if (track_hv) {
        stats.hypervolume =
            Hypervolume2DInPlace(&hv_pairs, nadir[0], nadir[1]);
        indicator = stats.hypervolume;
        indicator_is_hv = true;
      } else if (track_hv3) {
        indicator = Hypervolume3DInPlace(&hv_triples, nadir[0], nadir[1],
                                         nadir[2], &hv3_xy);
        indicator_is_hv = true;
      }
      if (stall_on) {
        bool improved;
        if (indicator_is_hv) {
          if (!have_indicator) {
            improved = true;
          } else {
            double rel = (indicator - best_indicator) /
                         std::max(std::fabs(best_indicator), 1e-12);
            improved = rel > config_.stall_tolerance;
          }
          if (!have_indicator || indicator > best_indicator) {
            best_indicator = indicator;
          }
          have_indicator = true;
        } else {
          improved = gen == 0 || front_sig != prev_sig;
          prev_sig.assign(front_sig.begin(), front_sig.end());
        }
        if (improved) {
          stall_count = 0;
        } else {
          ++stall_count;
        }
        stats.stalled_generations = stall_count;
        early = stall_count >= config_.stall_generations;
      }
    }

    // Telemetry stays on the coordinator thread: the observer runs once
    // per generation, after the parallel section has joined.
    if (config_.on_generation) config_.on_generation(stats);
    result.generations_run = gen + 1;
    if (early) {
      result.early_exit = true;
      break;
    }
  }

  result.final_population.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    result.final_population.push_back(std::move(arena[i].sol));
  }
  std::vector<size_t> front_idx = ParetoFrontIndices(result.final_population);
  result.pareto_front.reserve(front_idx.size());
  for (size_t i : front_idx) {
    result.pareto_front.push_back(result.final_population[i]);
  }
  return result;
}

}  // namespace flower::opt
