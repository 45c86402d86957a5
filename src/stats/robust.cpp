#include "stats/robust.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace flower::stats {

namespace {

double Median(std::vector<double>* v) {
  std::sort(v->begin(), v->end());
  size_t n = v->size();
  if (n % 2 == 1) return (*v)[n / 2];
  return 0.5 * ((*v)[n / 2 - 1] + (*v)[n / 2]);
}

}  // namespace

Result<TheilSenFit> FitTheilSen(const std::vector<double>& x,
                                const std::vector<double>& y,
                                size_t max_pairs, uint64_t seed) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("FitTheilSen: size mismatch");
  }
  size_t n = x.size();
  if (n < 3) {
    return Status::FailedPrecondition(
        "FitTheilSen: need at least 3 samples");
  }
  std::vector<double> slopes;
  uint64_t total_pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  if (total_pairs <= max_pairs) {
    slopes.reserve(total_pairs);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double dx = x[j] - x[i];
        if (std::fabs(dx) < 1e-300) continue;
        slopes.push_back((y[j] - y[i]) / dx);
      }
    }
  } else {
    Rng rng(seed);
    slopes.reserve(max_pairs);
    for (size_t k = 0; k < max_pairs; ++k) {
      size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      if (i == j) continue;
      double dx = x[j] - x[i];
      if (std::fabs(dx) < 1e-300) continue;
      slopes.push_back((y[j] - y[i]) / dx);
    }
  }
  if (slopes.empty()) {
    return Status::FailedPrecondition("FitTheilSen: zero variance in x");
  }
  TheilSenFit fit;
  fit.n = n;
  fit.pairs_used = slopes.size();
  fit.slope = Median(&slopes);
  std::vector<double> residual_intercepts;
  residual_intercepts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    residual_intercepts.push_back(y[i] - fit.slope * x[i]);
  }
  fit.intercept = Median(&residual_intercepts);
  return fit;
}

}  // namespace flower::stats
