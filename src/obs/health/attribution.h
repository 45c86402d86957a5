#ifndef FLOWER_OBS_HEALTH_ATTRIBUTION_H_
#define FLOWER_OBS_HEALTH_ATTRIBUTION_H_

#include <string>
#include <vector>

#include "common/time_series.h"
#include "obs/event_log.h"
#include "obs/health/anomaly.h"
#include "obs/health/slo.h"

namespace flower::obs::health {

/// A learned Eq. 1 cross-layer regression edge, in neutral form: obs
/// cannot include core, so core::DependencyAnalyzer results are
/// converted to this struct (see core::ToHealthEdges) and handed in.
struct DependencyEdge {
  std::string predictor_layer;
  std::string response_layer;
  std::string predictor_metric;  ///< Display name, e.g. "IncomingRecords".
  std::string response_metric;
  double slope = 0.0;
  double correlation = 0.0;
  double r_squared = 0.0;
  bool significant = false;
};

/// One scored contribution to a layer's attribution.
struct AttributionEvidence {
  std::string kind;    ///< "saturation", "breaker_open", "dependency", ...
  std::string detail;  ///< Human-readable specifics.
  double weight = 0.0;
};

struct LayerAttribution {
  std::string layer;
  double score = 0.0;
  std::vector<AttributionEvidence> evidence;
};

/// The structured artifact emitted on an SLO breach: which objective
/// broke, how hard it is burning, and the ranked per-layer attribution
/// (§4's "which layer is starving the flow" question, answered from
/// data already in the telemetry hub).
struct HealthReport {
  SimTime time = 0.0;
  SloStatus slo;  ///< Status of the breached objective at report time.
  /// Layers ranked by attribution score, highest first; ties break by
  /// layer name so reports are deterministic.
  std::vector<LayerAttribution> ranking;
  std::vector<AnomalyEvent> recent_anomalies;
  std::string summary;  ///< One line: top layer + dominant evidence.
};

struct AttributorConfig {
  /// How far back in sim-time decisions and anomalies are considered.
  double decision_window_sec = 600.0;
  double anomaly_window_sec = 600.0;
  /// clamped_u below raw_u by more than this counts as saturation
  /// (the loop asked for more capacity than limits/share allowed).
  double saturation_eps = 0.5;
  // Symptom weights. Decision-record symptoms are scored as the
  // fraction of the layer's recent records showing the symptom, times
  // the weight — so a layer with a faster control period is not
  // over-counted just for logging more rows.
  double w_saturation = 3.0;
  double w_breaker_open = 2.5;
  double w_actuation_failed = 2.0;
  double w_sensor_miss = 1.0;
  double w_stale_sensor = 0.5;
  double w_fault_interference = 1.5;
  double w_anomaly = 2.0;        ///< Per anomalous stream-tick, capped.
  double anomaly_cap = 4.0;      ///< Max total anomaly contribution.
  /// Credit |r| * w for each significant edge feeding a distressed
  /// layer: rising upstream load explains why the response layer is
  /// the bottleneck (Eq. 1/2 propagation).
  double w_dependency = 2.0;
};

/// Ranks layers by likely responsibility for an SLO breach, combining
/// three independent signal families: control-decision symptoms
/// (saturation, breaker state, failed actuations, sensor loss, fault
/// stamps), recent anomaly-detector events, and the learned dependency
/// graph. Pure function of its inputs — no clocks, no registry access —
/// so reports are reproducible from a decision log.
class RootCauseAttributor {
 public:
  explicit RootCauseAttributor(AttributorConfig config = {})
      : config_(config) {}

  /// Replaces the dependency edges (re-learned periodically by the
  /// caller via core::DependencyAnalyzer).
  void SetDependencyEdges(std::vector<DependencyEdge> edges) {
    edges_ = std::move(edges);
  }
  const std::vector<DependencyEdge>& edges() const { return edges_; }

  /// Builds a report for one breached SLO from the decision log's
  /// retained records and `anomalies`, the recent detector events.
  HealthReport Attribute(SimTime now, const SloStatus& breached,
                         const DecisionLog& decisions,
                         const std::vector<AnomalyEvent>& anomalies) const;

  const AttributorConfig& config() const { return config_; }

 private:
  AttributorConfig config_;
  std::vector<DependencyEdge> edges_;
};

}  // namespace flower::obs::health

#endif  // FLOWER_OBS_HEALTH_ATTRIBUTION_H_
