#ifndef FLOWER_STATS_LINREG_H_
#define FLOWER_STATS_LINREG_H_

#include <vector>

#include "common/result.h"

namespace flower::stats {

/// Fitted simple linear regression y = intercept + slope * x + e
/// (the paper's Eq. 1), with standard OLS inference.
struct SimpleFit {
  double intercept = 0.0;      ///< beta_0
  double slope = 0.0;          ///< beta_1
  double r_squared = 0.0;      ///< Coefficient of determination.
  double correlation = 0.0;    ///< Pearson r between x and y.
  double residual_std = 0.0;   ///< sqrt(SSE / (n - 2)).
  double slope_stderr = 0.0;   ///< Standard error of the slope.
  double intercept_stderr = 0.0;
  double slope_t = 0.0;        ///< t statistic of slope (H0: slope = 0).
  size_t n = 0;

  /// Predicted response at x.
  double Predict(double x) const { return intercept + slope * x; }
};

/// Ordinary least squares fit of y on x. Errors: size mismatch, fewer
/// than three samples, or zero variance in x.
Result<SimpleFit> FitSimple(const std::vector<double>& x,
                            const std::vector<double>& y);

}  // namespace flower::stats

#endif  // FLOWER_STATS_LINREG_H_
