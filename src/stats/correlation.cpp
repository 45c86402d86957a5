#include "stats/correlation.h"

#include <cmath>
#include <cstdlib>

namespace flower::stats {

namespace {

// Pearson r over raw arrays; returns 0-variance failure via ok=false.
bool PearsonRaw(const double* x, const double* y, size_t n, double* r) {
  if (n < 2) return false;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return false;
  *r = sxy / std::sqrt(sxx * syy);
  return true;
}

}  // namespace

Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("PearsonCorrelation: size mismatch");
  }
  if (x.size() < 2) {
    return Status::FailedPrecondition(
        "PearsonCorrelation: need at least two samples");
  }
  double r = 0.0;
  if (!PearsonRaw(x.data(), y.data(), x.size(), &r)) {
    return Status::FailedPrecondition(
        "PearsonCorrelation: zero variance input");
  }
  return r;
}

Result<LagCorrelation> CrossCorrelation(const std::vector<double>& x,
                                        const std::vector<double>& y,
                                        int max_lag) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("CrossCorrelation: size mismatch");
  }
  if (max_lag < 0) {
    return Status::InvalidArgument("CrossCorrelation: negative max_lag");
  }
  int n = static_cast<int>(x.size());
  if (n < 3) {
    return Status::FailedPrecondition(
        "CrossCorrelation: need at least three samples");
  }
  LagCorrelation out;
  out.r_by_lag.reserve(static_cast<size_t>(2 * max_lag + 1));
  double best_abs = -1.0;
  for (int lag = -max_lag; lag <= max_lag; ++lag) {
    // Positive lag: correlate x[t] with y[t + lag].
    int overlap = n - std::abs(lag);
    double r = 0.0;
    if (overlap >= 3) {
      const double* xp = lag >= 0 ? x.data() : x.data() - lag;
      const double* yp = lag >= 0 ? y.data() + lag : y.data();
      if (!PearsonRaw(xp, yp, static_cast<size_t>(overlap), &r)) r = 0.0;
    }
    out.r_by_lag.push_back(r);
    if (std::fabs(r) > best_abs) {
      best_abs = std::fabs(r);
      out.best_lag = lag;
      out.best_r = r;
    }
  }
  return out;
}

}  // namespace flower::stats
