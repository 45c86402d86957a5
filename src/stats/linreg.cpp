#include "stats/linreg.h"

#include <cmath>

#include "stats/descriptive.h"

namespace flower::stats {

Result<SimpleFit> FitSimple(const std::vector<double>& x,
                            const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("FitSimple: size mismatch");
  }
  size_t n = x.size();
  if (n < 3) {
    return Status::FailedPrecondition("FitSimple: need at least 3 samples");
  }
  double mx = Mean(x), my = Mean(y);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = x[i] - mx, dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) {
    return Status::FailedPrecondition("FitSimple: zero variance in x");
  }
  SimpleFit fit;
  fit.n = n;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  double sse = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double e = y[i] - fit.Predict(x[i]);
    sse += e * e;
  }
  fit.r_squared = syy > 0.0 ? 1.0 - sse / syy : 1.0;
  fit.correlation = syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
  double dof = static_cast<double>(n - 2);
  fit.residual_std = std::sqrt(sse / dof);
  fit.slope_stderr = fit.residual_std / std::sqrt(sxx);
  fit.intercept_stderr =
      fit.residual_std *
      std::sqrt(1.0 / static_cast<double>(n) + mx * mx / sxx);
  fit.slope_t = fit.slope_stderr > 0.0 ? fit.slope / fit.slope_stderr : 0.0;
  return fit;
}

}  // namespace flower::stats
