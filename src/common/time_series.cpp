#include "common/time_series.h"

#include <algorithm>

namespace flower {

Status TimeSeries::Append(SimTime time, double value) {
  if (!samples_.empty() && time < samples_.back().time) {
    return Status::InvalidArgument("TimeSeries: non-monotonic append");
  }
  samples_.push_back({time, value});
  return Status::OK();
}

TimeSeries TimeSeries::Window(SimTime t0, SimTime t1) const {
  TimeSeries out;
  auto lo = std::lower_bound(
      samples_.begin(), samples_.end(), t0,
      [](const Sample& s, SimTime t) { return s.time < t; });
  for (auto it = lo; it != samples_.end() && it->time < t1; ++it) {
    out.AppendUnchecked(it->time, it->value);
  }
  return out;
}

TimeSeries TimeSeries::WindowLeftOpen(SimTime t0, SimTime t1) const {
  TimeSeries out;
  auto lo = std::upper_bound(
      samples_.begin(), samples_.end(), t0,
      [](SimTime t, const Sample& s) { return t < s.time; });
  for (auto it = lo; it != samples_.end() && it->time <= t1; ++it) {
    out.AppendUnchecked(it->time, it->value);
  }
  return out;
}

std::vector<double> TimeSeries::Values() const {
  std::vector<double> v;
  v.reserve(samples_.size());
  for (const Sample& s : samples_) v.push_back(s.value);
  return v;
}

std::vector<SimTime> TimeSeries::Times() const {
  std::vector<SimTime> v;
  v.reserve(samples_.size());
  for (const Sample& s : samples_) v.push_back(s.time);
  return v;
}

Result<double> TimeSeries::At(SimTime t) const {
  if (samples_.empty()) {
    return Status::NotFound("TimeSeries is empty");
  }
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](SimTime tt, const Sample& s) { return tt < s.time; });
  if (it == samples_.begin()) {
    return Status::NotFound(
        "TimeSeries has no sample at or before requested time");
  }
  return std::prev(it)->value;
}

TimeSeries TimeSeries::BucketMean(SimTime t0, SimTime step) const {
  TimeSeries out;
  if (samples_.empty() || step <= 0.0) return out;
  double bucket_start = t0;
  double sum = 0.0;
  size_t count = 0;
  for (const Sample& s : samples_) {
    if (s.time < t0) continue;
    while (s.time >= bucket_start + step) {
      if (count > 0) {
        out.AppendUnchecked(bucket_start, sum / static_cast<double>(count));
      }
      bucket_start += step;
      sum = 0.0;
      count = 0;
    }
    sum += s.value;
    ++count;
  }
  if (count > 0) {
    out.AppendUnchecked(bucket_start, sum / static_cast<double>(count));
  }
  return out;
}

}  // namespace flower
