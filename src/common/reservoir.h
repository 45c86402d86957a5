#ifndef FLOWER_COMMON_RESERVOIR_H_
#define FLOWER_COMMON_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace flower {

/// Percentile of `*sample` by linear interpolation between the two
/// closest ranks of its ascending order. Reorders `*sample`: it selects
/// rank ⌊r⌋ (`std::nth_element`) and takes the minimum of the elements
/// after it as rank ⌊r⌋ + 1, so it returns, bit for bit, what sorting
/// the sample and interpolating would, without the sort.
/// Errors: empty sample or p outside [0, 100].
Result<double> Percentile(std::vector<double>* sample, double p);

/// Fixed-size uniform reservoir sample (Vitter's algorithm R): keeps a
/// uniform random subset of an unbounded stream in O(capacity) memory,
/// so per-period latency percentiles stay cheap even at millions of
/// tuples per period.
class ReservoirSampler {
 public:
  ReservoirSampler(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void Add(double value);

  size_t size() const { return sample_.size(); }
  uint64_t observed() const { return observed_; }
  const std::vector<double>& sample() const { return sample_; }

  /// Percentile (linear interpolation) over the current sample.
  /// Errors: empty reservoir or p outside [0, 100].
  Result<double> Percentile(double p) const;

  /// Clears the sample but keeps the RNG state (fresh period).
  void Reset();

 private:
  size_t capacity_;
  Rng rng_;
  std::vector<double> sample_;
  uint64_t observed_ = 0;
};

}  // namespace flower

#endif  // FLOWER_COMMON_RESERVOIR_H_
