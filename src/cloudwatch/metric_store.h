#ifndef FLOWER_CLOUDWATCH_METRIC_STORE_H_
#define FLOWER_CLOUDWATCH_METRIC_STORE_H_

#include <limits>
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
///
/// History: a store keeps every datapoint unless `BoundHistory(L)` is
/// called before the first one. A bounded store keeps, per series, only
/// what a reader looking back at most L seconds from the series' newest
/// datapoint can reach: a `Put` at t drops that series' datapoints
/// stamped <= t - L. A read never sees part of its window: one whose
/// window starts before the newest dropped datapoint is refused, and
/// any other answers exactly as full history would. A fleet partition
/// bounds its private store to the longest lookback of the readers its
/// FlowBuilder wires; the paper benches, the dashboards and
/// core::Monitor read whole series from an unbounded store.
class MetricStore {
 public:
  /// Bounds every series' history to `lookback_sec` (see the class
  /// comment). InvalidArgument unless `lookback_sec` is finite and > 0;
  /// FailedPrecondition once the store holds a datapoint.
  Status BoundHistory(double lookback_sec);

  /// Records one datapoint. Datapoints per metric must arrive in
  /// non-decreasing time order (the simulation guarantees this);
  /// InvalidArgument, naming the metric, otherwise.
  Status Put(const MetricId& id, SimTime time, double value);

  /// Aggregate of the datapoints of `id` in (t0, t1]. Errors: t1 <= t0
  /// (InvalidArgument), unknown metric or empty window (NotFound), and
  /// on a bounded store t0 before the stamp of the series' newest
  /// dropped datapoint (FailedPrecondition, naming the metric: the
  /// window may have lost datapoints, so no partial answer is given).
  Result<double> GetStatistic(const MetricId& id, SimTime t0, SimTime t1,
                              Statistic stat) const;

  /// The series for a metric: its full history, or on a bounded store
  /// the retained suffix (NotFound when never written).
  Result<const TimeSeries*> GetSeries(const MetricId& id) const;

  /// All metric ids currently present, optionally filtered by
  /// namespace ("" = all). Sorted.
  std::vector<MetricId> ListMetrics(const std::string& ns = "") const;

  size_t metric_count() const { return series_.size(); }
  /// Datapoints ever put, including those a bound has since dropped.
  size_t total_datapoints() const { return total_datapoints_; }

 private:
  struct Series {
    TimeSeries samples;
    /// Stamp of the newest datapoint the bound dropped; reads with an
    /// earlier t0 are refused.
    SimTime dropped_through = -std::numeric_limits<double>::infinity();
  };

  std::map<MetricId, Series> series_;
  size_t total_datapoints_ = 0;
  double history_sec_ = std::numeric_limits<double>::infinity();
};

}  // namespace flower::cloudwatch

#endif  // FLOWER_CLOUDWATCH_METRIC_STORE_H_
