#ifndef FLOWER_STATS_ROBUST_H_
#define FLOWER_STATS_ROBUST_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace flower::stats {

/// Theil–Sen robust line fit: slope = median of pairwise slopes,
/// intercept = median of (y − slope·x). Breakdown point ~29%, so the
/// fit survives the monitoring glitches and load spikes that wreck OLS
/// on real operations logs.
struct TheilSenFit {
  double slope = 0.0;
  double intercept = 0.0;
  size_t n = 0;
  /// Pairwise slopes actually evaluated (all pairs, or the random
  /// subsample for large n).
  size_t pairs_used = 0;

  double Predict(double x) const { return intercept + slope * x; }
};

/// Fits y = intercept + slope*x robustly. For n(n-1)/2 > max_pairs the
/// estimator evaluates a seeded random subsample of pairs (still
/// consistent, deterministic per seed). Errors: size mismatch, fewer
/// than three samples, or all x equal.
Result<TheilSenFit> FitTheilSen(const std::vector<double>& x,
                                const std::vector<double>& y,
                                size_t max_pairs = 500000,
                                uint64_t seed = 42);

}  // namespace flower::stats

#endif  // FLOWER_STATS_ROBUST_H_
