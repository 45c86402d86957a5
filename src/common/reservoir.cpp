#include "common/reservoir.h"

#include <algorithm>
#include <cmath>

namespace flower {

void ReservoirSampler::Add(double value) {
  ++observed_;
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
    return;
  }
  // Replace a random element with probability capacity/observed.
  uint64_t j = static_cast<uint64_t>(
      rng_.UniformInt(0, static_cast<int64_t>(observed_) - 1));
  if (j < capacity_) {
    sample_[static_cast<size_t>(j)] = value;
  }
}

Result<double> PercentileOfSorted(const std::vector<double>& sorted,
                                  double p) {
  if (p < 0.0 || p > 100.0) {
    return Status::InvalidArgument("Reservoir percentile: p outside [0,100]");
  }
  if (sorted.empty()) {
    return Status::FailedPrecondition("Reservoir percentile: empty sample");
  }
  if (sorted.size() == 1) return sorted[0];
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Result<double> ReservoirSampler::Percentile(double p) const {
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  return PercentileOfSorted(sorted, p);
}

void ReservoirSampler::Reset() {
  sample_.clear();
  observed_ = 0;
}

}  // namespace flower
