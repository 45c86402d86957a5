// Layer replay: a sample of the workload's tenants rebuilt as the
// Kinesis -> Storm -> DynamoDB pipeline from its components, with
// timing decorators around the spout, the bolts and the arrival
// process, stepped one simulation event at a time so every event's
// wall time lands on the layer whose work it did.
#ifndef FLOWERBENCH_LAYER_REPLAY_H_
#define FLOWERBENCH_LAYER_REPLAY_H_

#include <string>
#include <vector>

#include "bench.h"

namespace flowerbench {

struct LayerReplayResult {
  flower::Status status = flower::Status::OK();
  /// Empty when every replayed pipeline reproduced
  /// flow::DataAnalyticsFlow's counts for the same config and seed.
  std::string fidelity_error;
  // Event-step time by layer (seconds).
  double workload_event_s = 0.0;  ///< Generator events, puts included.
  double put_s = 0.0;             ///< Kinesis PutRecord (calibrated).
  double tick_s = 0.0;            ///< Storm scheduler-tick events.
  double get_s = 0.0;             ///< Spout GetRecordsInto, in ticks.
  double window_s = 0.0;          ///< Window-count bolt, in ticks.
  double persist_s = 0.0;         ///< Persist bolt (DynamoDB), in ticks.
  double publish_s = 0.0;         ///< Metric-publication events.
  // Counts.
  uint64_t records = 0;            ///< Generated click records.
  uint64_t put_throttled = 0;      ///< Records Kinesis rejected.
  uint64_t tuples = 0;             ///< Tuples the cluster executed.
  uint64_t aggregates = 0;         ///< Window aggregates emitted.
  uint64_t writes = 0;             ///< DynamoDB writes accepted.
  uint64_t write_throttled = 0;    ///< DynamoDB writes throttled.
  uint64_t datapoints = 0;         ///< Metric datapoints stored.
  uint64_t series = 0;             ///< Metric series stored.
  std::vector<double> query_s;     ///< Per GetStatistic sensor query.
};

/// Replays the first `w.replay_tenants` tenants of the workload for
/// `w.replay_horizon_sec` each, then queries each store's sensor
/// metrics over every control window.
LayerReplayResult RunLayerReplay(const WorkloadSpec& w, uint64_t seed);

}  // namespace flowerbench

#endif  // FLOWERBENCH_LAYER_REPLAY_H_
