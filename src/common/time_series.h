#ifndef FLOWER_COMMON_TIME_SERIES_H_
#define FLOWER_COMMON_TIME_SERIES_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace flower {

/// Simulated time in seconds since simulation start.
using SimTime = double;

/// One observation of a metric.
struct Sample {
  SimTime time = 0.0;
  double value = 0.0;
};

/// An append-only series of (time, value) samples ordered by time.
///
/// This is the exchange format between the simulated services, the
/// CloudWatch-like metric store, the dependency analyzer, and the
/// benchmark harness. Samples must be appended in non-decreasing time
/// order; `Append` returns InvalidArgument otherwise.
class TimeSeries {
 public:
  Status Append(SimTime time, double value);
  /// Appends unconditionally; asserts ordering only in debug builds.
  void AppendUnchecked(SimTime time, double value) {
    samples_.push_back({time, value});
  }

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& operator[](size_t i) const { return samples_[i]; }
  const std::vector<Sample>& samples() const { return samples_; }

  SimTime start_time() const { return empty() ? 0.0 : samples_.front().time; }
  SimTime end_time() const { return empty() ? 0.0 : samples_.back().time; }

  /// All samples with time in [t0, t1) (bucket semantics: a sample at
  /// exactly t0 belongs to this bucket, one at t1 to the next).
  TimeSeries Window(SimTime t0, SimTime t1) const;

  /// All samples with time in (t0, t1] (trailing-window semantics: a
  /// sample stamped exactly "now" is visible to a query ending at now,
  /// and consecutive back-to-back windows never count an edge sample
  /// twice).
  TimeSeries WindowLeftOpen(SimTime t0, SimTime t1) const;

  /// Values only, in time order.
  std::vector<double> Values() const;
  /// Times only, in time order.
  std::vector<SimTime> Times() const;

  /// Value of the latest sample at or before `t`; NotFound when the
  /// series is empty or starts after `t`.
  Result<double> At(SimTime t) const;

  /// Aggregates samples into consecutive buckets of width `step`
  /// (mean per bucket), producing one sample per non-empty bucket
  /// stamped at the bucket start. This matches CloudWatch "period"
  /// statistics.
  TimeSeries BucketMean(SimTime t0, SimTime step) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace flower

#endif  // FLOWER_COMMON_TIME_SERIES_H_
