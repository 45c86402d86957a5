#ifndef FLOWER_CLOUDWATCH_METRIC_STORE_H_
#define FLOWER_CLOUDWATCH_METRIC_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"

namespace flower::cloudwatch {

/// Fully qualified metric identity: namespace (one per simulated
/// service, e.g. "AWS/Kinesis") + metric name + one dimension value
/// (e.g. the stream/table/cluster name).
struct MetricId {
  std::string metric_namespace;
  std::string name;
  std::string dimension;

  bool operator<(const MetricId& o) const {
    if (metric_namespace != o.metric_namespace)
      return metric_namespace < o.metric_namespace;
    if (name != o.name) return name < o.name;
    return dimension < o.dimension;
  }
  bool operator==(const MetricId& o) const = default;
  std::string ToString() const {
    return metric_namespace + "/" + name + "{" + dimension + "}";
  }
};

/// Aggregation functions offered by the statistics query API.
enum class Statistic { kAverage, kSum, kMinimum, kMaximum, kSampleCount,
                       kP50, kP90, kP99 };

/// The cross-platform metric store (the simulated stand-in for Amazon
/// CloudWatch, §3.4). Every simulated service publishes its metrics
/// here; Flower's sensors and the all-in-one-place visualizer read them
/// back through the statistics query API.
///
/// Window-boundary contract (pinned by metric_store_test):
/// `GetStatistic(t0, t1)` aggregates over the half-open interval
/// **(t0, t1]** — trailing-window semantics. A sensor querying
/// `(now - window, now]` sees a datapoint stamped exactly at `now`, and
/// two consecutive control steps with back-to-back windows each count
/// an edge datapoint exactly once.
class MetricStore {
 public:
  /// Records one datapoint. Datapoints per metric must arrive in
  /// non-decreasing time order (the simulation guarantees this);
  /// InvalidArgument, naming the metric, otherwise.
  Status Put(const MetricId& id, SimTime time, double value);

  /// Aggregate of the datapoints of `id` in (t0, t1]. Errors: unknown
  /// metric, empty window, or t1 <= t0.
  Result<double> GetStatistic(const MetricId& id, SimTime t0, SimTime t1,
                              Statistic stat) const;

  /// Full series for a metric (NotFound when never written).
  Result<const TimeSeries*> GetSeries(const MetricId& id) const;

  /// All metric ids currently present, optionally filtered by
  /// namespace ("" = all). Sorted.
  std::vector<MetricId> ListMetrics(const std::string& ns = "") const;

  size_t metric_count() const { return series_.size(); }
  size_t total_datapoints() const { return total_datapoints_; }

 private:
  std::map<MetricId, TimeSeries> series_;
  size_t total_datapoints_ = 0;
};

}  // namespace flower::cloudwatch

#endif  // FLOWER_CLOUDWATCH_METRIC_STORE_H_
