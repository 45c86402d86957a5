#ifndef FLOWER_OBS_HEALTH_ANOMALY_H_
#define FLOWER_OBS_HEALTH_ANOMALY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "obs/health/slo.h"
#include "obs/metrics_registry.h"
#include "stats/rolling.h"

namespace flower::obs::health {

enum class AnomalyKind {
  kSpike,      ///< One-sample outlier (EWMA + MAD-style z-score gate).
  kLevelShift, ///< Sustained mean change (Page–Hinkley).
};

const char* AnomalyKindToString(AnomalyKind kind);

struct AnomalyEvent {
  SimTime time = 0.0;
  std::string stream;  ///< Display id, e.g. "loop.sensed_y{loop=storage}".
  std::string layer;   ///< Layer tag attached at Watch(); may be "".
  AnomalyKind kind = AnomalyKind::kSpike;
  double value = 0.0;  ///< The observed sample.
  double score = 0.0;  ///< |z| for spikes; PH statistic for shifts.
};

/// O(1)-per-sample detector: EWMA location + exponentially weighted
/// mean absolute deviation as a MAD-style robust scale (×1.2533 for
/// Gaussian consistency), gating a z-score spike test; plus a
/// two-sided Page–Hinkley cumulative test on the normalized residual
/// for level shifts. The first 8 observations are collected in a
/// stats::RollingWindow and used to seed location and scale; nothing
/// is flagged during warmup. State updates winsorize the residual at 3
/// sigma so a single spike cannot drag the baseline to the outlier and
/// mask the next one. The tuning is fixed (constants in anomaly.cpp).
class AnomalyDetector {
 public:
  AnomalyDetector();

  struct Sample {
    bool spike = false;
    bool shift = false;
    double z = 0.0;        ///< Signed z-score vs the pre-update baseline.
    double ph_stat = 0.0;  ///< Max of the two one-sided PH statistics.
  };

  Sample Update(double x);

  bool warmed_up() const { return warmed_up_; }
  double mean() const { return mean_; }
  double scale() const;

 private:
  stats::RollingWindow seed_;
  bool warmed_up_ = false;
  double mean_ = 0.0;
  double abs_dev_ = 0.0;  ///< EW mean absolute deviation.
  // Two-sided Page–Hinkley accumulators over the normalized residual.
  double ph_up_ = 0.0;
  double ph_up_min_ = 0.0;
  double ph_down_ = 0.0;
  double ph_down_max_ = 0.0;
};

/// A set of detectors bound to registry instruments. `UpdateAll` pulls
/// each watched stream's current sample out of a MetricsSnapshot
/// (gauges directly; counters as per-tick rate) and advances its
/// detector, in registration order.
class AnomalyBank {
 public:
  enum class Source {
    kGauge,        ///< Sample = gauge value.
    kCounterRate,  ///< Sample = counter delta per tick.
  };

  /// Registers a stream. `layer` tags resulting events for attribution
  /// ("" for flow-level streams). Duplicate (source, selector) watches
  /// are rejected.
  Status Watch(Source source, MetricSelector selector, std::string layer);

  /// Advances every stream one tick and returns the events it flagged,
  /// in stream order. Streams whose instrument is absent from the
  /// snapshot skip the tick (detectors hold state).
  std::vector<AnomalyEvent> UpdateAll(SimTime now,
                                      const MetricsSnapshot& snapshot);

  struct StreamState {
    std::string stream;
    std::string layer;
    double last_value = 0.0;
    double last_z = 0.0;
    bool anomalous = false;  ///< Spike or shift on the latest tick.
  };
  /// Current per-stream state in registration order (for publication
  /// and dashboards).
  std::vector<StreamState> States() const;

  size_t NumStreams() const { return streams_.size(); }

 private:
  struct Stream {
    Source source;
    MetricSelector selector;
    std::string display;  ///< selector.ToString(), cached.
    std::string layer;
    AnomalyDetector detector;
    // Counter-rate differencing state.
    bool has_last_counter = false;
    double last_counter = 0.0;
    StreamState state;
  };

  std::vector<Stream> streams_;
};

}  // namespace flower::obs::health

#endif  // FLOWER_OBS_HEALTH_ANOMALY_H_
