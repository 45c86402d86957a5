#include "cloudwatch/metric_store.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace flower::cloudwatch {

Status MetricStore::BoundHistory(double lookback_sec) {
  if (!(std::isfinite(lookback_sec) && lookback_sec > 0.0)) {
    return Status::InvalidArgument(
        "BoundHistory: lookback must be finite and > 0");
  }
  if (total_datapoints_ > 0) {
    return Status::FailedPrecondition(
        "BoundHistory: the store already holds datapoints");
  }
  history_sec_ = lookback_sec;
  return Status::OK();
}

Status MetricStore::Put(const MetricId& id, SimTime time, double value) {
  Series& series = series_[id];
  if (!series.samples.Append(time, value).ok()) {
    return Status::InvalidArgument("Put: datapoint for " + id.ToString() +
                                   " is older than the metric's last");
  }
  if (std::isfinite(history_sec_)) {
    series.dropped_through =
        std::max(series.dropped_through,
                 series.samples.DropThrough(time - history_sec_));
  }
  ++total_datapoints_;
  return Status::OK();
}

namespace {

Result<double> Aggregate(const std::vector<double>& v, Statistic stat) {
  switch (stat) {
    case Statistic::kAverage:
      return stats::Mean(v);
    case Statistic::kSum: {
      double s = 0.0;
      for (double x : v) s += x;
      return s;
    }
    case Statistic::kMinimum:
      return *std::min_element(v.begin(), v.end());
    case Statistic::kMaximum:
      return *std::max_element(v.begin(), v.end());
    case Statistic::kSampleCount:
      return static_cast<double>(v.size());
    // Percentile sorts its input, so only these branches pay a copy.
    case Statistic::kP50:
      return stats::Percentile(v, 50.0);
    case Statistic::kP90:
      return stats::Percentile(v, 90.0);
    case Statistic::kP99:
      return stats::Percentile(v, 99.0);
  }
  return Status::Internal("GetStatistic: unhandled statistic");
}

}  // namespace

Result<double> MetricStore::GetStatistic(const MetricId& id, SimTime t0,
                                         SimTime t1, Statistic stat) const {
  if (t1 <= t0) {
    return Status::InvalidArgument("GetStatistic: t1 must exceed t0");
  }
  auto it = series_.find(id);
  if (it == series_.end()) {
    return Status::NotFound("GetStatistic: unknown metric " + id.ToString());
  }
  const Series& series = it->second;
  // Every datapoint in (t0, t1] is still held unless the bound dropped
  // one stamped after t0.
  if (t0 < series.dropped_through) {
    return Status::FailedPrecondition(
        "GetStatistic: window of " + id.ToString() +
        " reaches past the store's history bound");
  }
  // Trailing-window semantics (t0, t1]: see the class comment.
  TimeSeries window = series.samples.WindowLeftOpen(t0, t1);
  if (window.empty()) {
    return Status::NotFound("GetStatistic: no datapoints in window for " +
                            id.ToString());
  }
  return Aggregate(window.Values(), stat);
}

Result<const TimeSeries*> MetricStore::GetSeries(const MetricId& id) const {
  auto it = series_.find(id);
  if (it == series_.end()) {
    return Status::NotFound("GetSeries: unknown metric " + id.ToString());
  }
  return &it->second.samples;
}

std::vector<MetricId> MetricStore::ListMetrics(const std::string& ns) const {
  std::vector<MetricId> out;
  for (const auto& [id, ts] : series_) {
    if (ns.empty() || id.metric_namespace == ns) out.push_back(id);
  }
  return out;
}

}  // namespace flower::cloudwatch
