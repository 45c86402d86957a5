#include "cloudwatch/metric_store.h"

#include <algorithm>

#include "stats/descriptive.h"

namespace flower::cloudwatch {

Status MetricStore::Put(const MetricId& id, SimTime time, double value) {
  if (!series_[id].Append(time, value).ok()) {
    return Status::InvalidArgument("Put: datapoint for " + id.ToString() +
                                   " is older than the metric's last");
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
  // Trailing-window semantics (t0, t1]: see the class comment.
  TimeSeries window = it->second.WindowLeftOpen(t0, t1);
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
  return &it->second;
}

std::vector<MetricId> MetricStore::ListMetrics(const std::string& ns) const {
  std::vector<MetricId> out;
  for (const auto& [id, ts] : series_) {
    if (ns.empty() || id.metric_namespace == ns) out.push_back(id);
  }
  return out;
}

}  // namespace flower::cloudwatch
