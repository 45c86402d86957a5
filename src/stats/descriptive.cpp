#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace flower::stats {

Summary Summarize(const std::vector<double>& xs) {
  Summary s;
  double m2 = 0.0;
  for (double x : xs) {
    if (s.count == 0) {
      s.min = s.max = x;
    } else {
      s.min = std::min(s.min, x);
      s.max = std::max(s.max, x);
    }
    ++s.count;
    s.sum += x;
    double delta = x - s.mean;
    s.mean += delta / static_cast<double>(s.count);
    m2 += delta * (x - s.mean);
  }
  if (s.count >= 2) {
    s.variance = m2 / static_cast<double>(s.count - 1);
    s.stddev = std::sqrt(s.variance);
  }
  return s;
}

double Mean(const std::vector<double>& xs) { return Summarize(xs).mean; }
double Variance(const std::vector<double>& xs) {
  return Summarize(xs).variance;
}
double StdDev(const std::vector<double>& xs) { return Summarize(xs).stddev; }

Result<double> Rmse(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("Rmse: size mismatch");
  }
  if (a.empty()) return Status::FailedPrecondition("Rmse of empty vectors");
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

Result<double> MeanAbsoluteError(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("MeanAbsoluteError: size mismatch");
  }
  if (a.empty()) {
    return Status::FailedPrecondition("MeanAbsoluteError of empty vectors");
  }
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

}  // namespace flower::stats
