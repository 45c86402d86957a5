#ifndef FLOWER_STATS_CORRELATION_H_
#define FLOWER_STATS_CORRELATION_H_

#include <vector>

#include "common/result.h"

namespace flower::stats {

/// Pearson product-moment correlation coefficient in [-1, 1].
/// Errors: size mismatch, fewer than two samples, or zero variance in
/// either input.
Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y);

/// Result of scanning correlation across time lags.
struct LagCorrelation {
  int best_lag = 0;        ///< Lag (in samples) maximizing |r|; y lags x by best_lag.
  double best_r = 0.0;     ///< Pearson r at best_lag.
  std::vector<double> r_by_lag;  ///< r for lag = -max_lag ... +max_lag.
};

/// Cross-correlation of two equally sampled series over lags in
/// [-max_lag, +max_lag]. Positive lag means y is shifted later than x
/// (x predicts y). Lags whose overlap is < 3 samples or degenerate are
/// recorded as 0.
Result<LagCorrelation> CrossCorrelation(const std::vector<double>& x,
                                        const std::vector<double>& y,
                                        int max_lag);

}  // namespace flower::stats

#endif  // FLOWER_STATS_CORRELATION_H_
