#ifndef FLOWER_COMMON_RANDOM_H_
#define FLOWER_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flower {

/// Deterministic pseudo-random source used everywhere in Flower.
///
/// All stochastic components (workload generators, NSGA-II, simulated
/// service jitter) draw from an explicitly seeded `Rng` so that every
/// simulation, test, and benchmark is reproducible bit-for-bit. The
/// engine is xoshiro256** (32 bytes of state, seeded by splitmix64), and
/// every sampler is specified here rather than by the standard library:
/// a draw sequence depends only on the seed, IEEE-754 double arithmetic
/// and libm's `log`, `exp` and `sqrt`. No sampler takes a lock. DESIGN.md
/// ("Random draws") lists each sampler's algorithm, the engine outputs it
/// consumes and its libm calls.
class Rng {
 public:
  /// Fills the state with four successive splitmix64 outputs of `seed`.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit output of the engine (xoshiro256**).
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [lo, hi): lo + (hi - lo) * u, where u is the top
  /// 53 bits of one draw scaled to [0, 1). The final rounding can reach
  /// `hi` when hi - lo is not a power of two.
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return lo + (hi - lo) * Unit();
  }
  /// Uniform integer in [lo, hi] (inclusive; requires lo <= hi), by
  /// Lemire's nearly-divisionless method: the high word of a 128-bit
  /// product of one draw and the span, with a rejection step that is
  /// taken with probability below span / 2^64.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (span == 0) return static_cast<int64_t>(Next());  // All 2^64 values.
    Wide m = static_cast<Wide>(Next()) * span;
    if (static_cast<uint64_t>(m) < span) {
      const uint64_t threshold = (0 - span) % span;  // 2^64 mod span.
      while (static_cast<uint64_t>(m) < threshold) {
        m = static_cast<Wide>(Next()) * span;
      }
    }
    return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                static_cast<uint64_t>(m >> 64));
  }
  /// Gaussian with the given mean and standard deviation (Marsaglia's
  /// polar method; the pair's second value is discarded).
  double Normal(double mean = 0.0, double stddev = 1.0);
  /// Exponential with the given rate (events per unit time), by
  /// inversion: -log(u) / rate for u in (0, 1].
  double Exponential(double rate);
  /// Poisson-distributed count with the given mean, which must be below
  /// 2^52 (0 when it is not positive): multiplication of uniforms below
  /// mean 10, Hormann's PTRS transformed rejection from 10 up.
  int64_t Poisson(double mean);
  /// True with probability p: one uniform u in [0, 1), u < p.
  bool Bernoulli(double p) { return Unit() < p; }

 private:
  __extension__ typedef unsigned __int128 Wide;

  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// The top 53 bits of one draw, scaled to [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  uint64_t s_[4];
};

static_assert(sizeof(Rng) == 32, "an Rng is its 32-byte xoshiro256** state");

/// Vose's alias table over fixed weights: `Sample` returns index i in
/// [0, n) with probability weights[i] / sum(weights), from two draws, a
/// column by `UniformInt` and then a `Uniform` coin against the column's
/// threshold. Built once, in O(n), from the weights in index order.
class AliasTable {
 public:
  /// Requires a non-empty `weights` of finite values >= 0 with a
  /// positive sum, and fewer than 2^32 entries.
  explicit AliasTable(const std::vector<double>& weights);

  int64_t Sample(Rng* rng) const {
    const int64_t column =
        rng->UniformInt(0, static_cast<int64_t>(cells_.size()) - 1);
    const Cell& cell = cells_[static_cast<size_t>(column)];
    return rng->Uniform() < cell.prob ? column : cell.alias;
  }

 private:
  struct Cell {
    double prob;      ///< Chance the column keeps its own index.
    uint32_t alias;   ///< Index drawn otherwise.
  };
  std::vector<Cell> cells_;
};

}  // namespace flower

#endif  // FLOWER_COMMON_RANDOM_H_
