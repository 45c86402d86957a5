#include "common/reservoir.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

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

Result<double> Percentile(std::vector<double>* sample, double p) {
  if (p < 0.0 || p > 100.0) {
    return Status::InvalidArgument("Percentile: p outside [0, 100]");
  }
  if (sample->empty()) {
    return Status::FailedPrecondition("Percentile of an empty sample");
  }
  const size_t n = sample->size();
  if (n == 1) return (*sample)[0];
  double rank = p / 100.0 * static_cast<double>(n - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  auto lo_it = sample->begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(sample->begin(), lo_it, sample->end());
  // Everything after the selected rank is >= it, so the next rank of
  // the ascending order is the least of them.
  double lo_v = *lo_it;
  double hi_v = lo + 1 < n ? *std::min_element(lo_it + 1, sample->end())
                           : lo_v;
  return lo_v * (1.0 - frac) + hi_v * frac;
}

Result<double> ReservoirSampler::Percentile(double p) const {
  std::vector<double> copy = sample_;
  return flower::Percentile(&copy, p);
}

void ReservoirSampler::Reset() {
  sample_.clear();
  observed_ = 0;
}

}  // namespace flower
