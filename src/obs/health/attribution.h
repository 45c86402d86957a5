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

/// Ranks layers by likely responsibility for an SLO breach, combining
/// three independent signal families: control-decision symptoms
/// (saturation, breaker state, failed actuations, sensor loss, fault
/// stamps), recent anomaly-detector events, and the learned dependency
/// graph. Pure function of its inputs — no clocks, no registry access —
/// so reports are reproducible from a decision log. The windows and
/// weights are fixed (constants in attribution.cpp).
class RootCauseAttributor {
 public:
  /// Replaces the dependency edges (re-learned periodically by the
  /// caller via core::DependencyAnalyzer).
  void SetDependencyEdges(std::vector<DependencyEdge> edges) {
    edges_ = std::move(edges);
  }

  /// Builds a report for one breached SLO from the decision log's
  /// retained records and `anomalies`, the recent detector events.
  HealthReport Attribute(SimTime now, const SloStatus& breached,
                         const DecisionLog& decisions,
                         const std::vector<AnomalyEvent>& anomalies) const;

 private:
  std::vector<DependencyEdge> edges_;
};

}  // namespace flower::obs::health

#endif  // FLOWER_OBS_HEALTH_ATTRIBUTION_H_
