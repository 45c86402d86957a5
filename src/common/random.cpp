#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace flower {

namespace {

// log k!: exact (correctly rounded) below 10, then the Stirling series
// through its 1/k^9 term, whose truncation error is below 2e-14 at k = 10.
double LogFactorial(int64_t k) {
  static constexpr double kTable[10] = {
      0.0,
      0.0,
      0.69314718055994530941723212145817657,
      1.7917594692280550008124773583807023,
      3.1780538303479456196469416012970554,
      4.7874917427820459942477009345232430,
      6.5792512120101009950601782929039453,
      8.5251613610654143001655310363471251,
      10.604602902745250228417227400721655,
      12.801827480081469611207717874566706};
  if (k < 10) return kTable[k];
  constexpr double kHalfLog2Pi = 0.91893853320467274178032973640561764;
  const double n = static_cast<double>(k);
  const double r = 1.0 / n;
  const double r2 = r * r;
  const double series =
      r * (1.0 / 12.0 -
           r2 * (1.0 / 360.0 -
                 r2 * (1.0 / 1260.0 - r2 * (1.0 / 1680.0 - r2 / 1188.0))));
  return (n + 0.5) * std::log(n) - n + kHalfLog2Pi + series;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& word : s_) {
    word = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

double Rng::Normal(double mean, double stddev) {
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return mean + stddev * (u * std::sqrt(-2.0 * std::log(s) / s));
}

double Rng::Exponential(double rate) {
  const double u = static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53;
  return -std::log(u) / rate;
}

int64_t Rng::Poisson(double mean) {
  if (!(mean > 0.0)) return 0;
  if (mean < 10.0) {
    // The number of uniforms whose running product stays above e^-mean:
    // mean + 1 draws on average.
    const double limit = std::exp(-mean);
    int64_t k = 0;
    for (double product = Unit(); product > limit; product *= Unit()) ++k;
    return k;
  }
  // PTRS (Hormann 1993, "The transformed rejection method for generating
  // Poisson random variables"): two draws per trial, and the first trial
  // is accepted by the squeeze (no log) most of the time.
  const double sqrt_mean = std::sqrt(mean);
  const double log_mean = std::log(mean);
  const double b = 0.931 + 2.53 * sqrt_mean;
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = Unit() - 0.5;
    const double v = Unit();
    const double us = 0.5 - std::fabs(u);
    // From mean 10 up, every k the squeeze accepts is >= 4 and finite;
    // the range test keeps the tails' casts defined.
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<int64_t>(k);
    if (!(k >= 0.0 && k < 0x1.0p62) || (us < 0.013 && v > us)) continue;
    const int64_t count = static_cast<int64_t>(k);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        -mean + k * log_mean - LogFactorial(count)) {
      return count;
    }
  }
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  const size_t n = weights.size();
  FLOWER_CHECK(n > 0 && n < (uint64_t{1} << 32)) << "alias table of " << n;
  double sum = 0.0;
  for (double w : weights) {
    FLOWER_CHECK(std::isfinite(w) && w >= 0.0) << "alias weight " << w;
    sum += w;
  }
  FLOWER_CHECK(sum > 0.0 && std::isfinite(sum)) << "alias weight sum " << sum;
  // Vose: scale to mean 1, then pair each column below 1 with one above
  // it, which donates the shortfall. Worklists are stacks filled in index
  // order, so the table depends only on the weights.
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / sum;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  cells_.assign(n, Cell{1.0, 0});
  for (size_t i = 0; i < n; ++i) cells_[i].alias = static_cast<uint32_t>(i);
  while (!small.empty() && !large.empty()) {
    const uint32_t lo = small.back();
    small.pop_back();
    const uint32_t hi = large.back();
    large.pop_back();
    cells_[lo] = Cell{scaled[lo], hi};
    scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0;
    (scaled[hi] < 1.0 ? small : large).push_back(hi);
  }
  // Whatever is left holds 1 up to rounding and keeps its own index.
}

}  // namespace flower
