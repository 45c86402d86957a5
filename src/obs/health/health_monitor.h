#ifndef FLOWER_OBS_HEALTH_HEALTH_MONITOR_H_
#define FLOWER_OBS_HEALTH_HEALTH_MONITOR_H_

#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "obs/health/anomaly.h"
#include "obs/health/attribution.h"
#include "obs/health/slo.h"
#include "obs/telemetry.h"
#include "obs/tracked_snapshot.h"

namespace flower::obs::health {

/// Bits a HealthMonitor reports for a layer at a given instant (the
/// health analogue of FaultMask, and like it a plain integer so the
/// control layer can carry it without depending on obs/health).
inline constexpr uint8_t kHealthFlowBreach = 1 << 0;
inline constexpr uint8_t kHealthLayerBreach = 1 << 1;
inline constexpr uint8_t kHealthAnomaly = 1 << 2;

/// The flow-health brain: owns the SLO trackers, the anomaly bank, and
/// the attributor; consumes the Telemetry hub each evaluation tick and
/// publishes its own state back into the registry (slo.* gauges,
/// health.* counters) so dashboards and exporters see health through
/// the same pipe as every other instrument. Its one metric feed is a
/// TrackedSnapshot of the series its SLOs and watches read (AddSlo and
/// Watch track them); the SLO trackers' burn windows hold the history.
///
/// Driving: sim-time only. Callers schedule
///   sim.SchedulePeriodic(start, monitor.eval_period_sec(),
///                        [&] { monitor.Evaluate(sim.Now()); return true; });
/// themselves — the monitor never touches a clock or the Simulation
/// (obs cannot depend on sim), so a given telemetry history replays to
/// the identical health trajectory.
class HealthMonitor {
 public:
  /// `telemetry` must outlive the monitor. `eval_period_sec` is the
  /// spacing of Evaluate() ticks; SLO windows are sized in these ticks
  /// (a non-positive period means 60 s).
  explicit HealthMonitor(Telemetry* telemetry, double eval_period_sec = 60.0);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registers an objective. Duplicate ids are rejected. Registers the
  /// slo.* gauges for it immediately so exporters see the series from
  /// tick zero.
  Status AddSlo(const SloSpec& spec);

  /// Watches a registry instrument with an anomaly detector pair.
  /// `layer` tags events for attribution ("" = flow-level stream).
  Status Watch(AnomalyBank::Source source, MetricSelector selector,
               std::string layer);

  /// Installs/refreshes the learned dependency edges used by the
  /// attributor (typically re-learned periodically from
  /// core::DependencyAnalyzer via core::ToHealthEdges).
  void SetDependencyEdges(std::vector<DependencyEdge> edges);

  /// Installs a callback fired on every SLO alert *edge* (the tick a
  /// burn-rate alert first fires, not while it stays breached). This is
  /// the flight-recorder capture trigger: the hook runs inside
  /// Evaluate() after the tracker update, so the status it sees is the
  /// alert-tick state. Pass nullptr to uninstall.
  void SetAlertEdgeHook(std::function<void(SimTime, const SloStatus&)> hook) {
    alert_edge_hook_ = std::move(hook);
  }

  /// One evaluation tick: samples the tracked series, advances detectors
  /// and SLO trackers, publishes slo.*/health.* instruments, and on a
  /// breach transition builds a HealthReport from the decision log,
  /// recent anomalies, and the dependency edges. While an SLO stays
  /// breached it re-attributes every 10 ticks. The newest 256 reports
  /// and 4,096 anomaly events are retained.
  void Evaluate(SimTime now);

  /// Health bits for `layer` as of the latest Evaluate() tick.
  uint8_t MaskFor(const std::string& layer) const;

  /// Latest status per SLO, in AddSlo order.
  std::vector<SloStatus> Statuses() const;
  /// Ids of currently breached SLOs, in AddSlo order.
  std::vector<std::string> ActiveAlerts() const;
  const std::deque<HealthReport>& reports() const { return reports_; }
  const std::deque<AnomalyEvent>& anomaly_log() const { return anomaly_log_; }
  double eval_period_sec() const { return eval_period_sec_; }
  uint64_t evaluations() const { return evaluations_; }

  /// Serializes the full health state as JSONL: one "slo" line per
  /// objective, one "anomaly" line per retained event, one "report"
  /// line per retained report (ranked attribution inline). Stable field
  /// order, %.6g numbers — byte-identical across runs.
  void WriteJsonl(std::ostream& os) const;
  /// WriteJsonl to a file.
  Status ExportJsonl(const std::string& path) const;

 private:
  struct TrackedSlo {
    SloTracker tracker;
    Gauge* good_fraction = nullptr;
    Gauge* burn_fast = nullptr;
    Gauge* burn_slow = nullptr;
    Gauge* budget_consumed = nullptr;
    Gauge* breached = nullptr;
    Counter* alerts = nullptr;
  };

  void PublishStreamGauges();
  HealthReport BuildReport(SimTime now, const SloStatus& status);
  void TrackSloSeries(const SloSpec& spec);

  Telemetry* telemetry_;
  double eval_period_sec_;
  TrackedSnapshot feed_;
  std::vector<TrackedSlo> slos_;
  AnomalyBank bank_;
  RootCauseAttributor attributor_;
  std::deque<HealthReport> reports_;
  std::deque<AnomalyEvent> anomaly_log_;
  Counter* anomaly_counter_ = nullptr;
  Counter* report_counter_ = nullptr;
  std::function<void(SimTime, const SloStatus&)> alert_edge_hook_;
  uint64_t evaluations_ = 0;
};

/// The stock objective set for the canonical three-layer flow: one
/// utilization SLO per layer over the manager's loop.sensed_y gauges
/// (bad when utilization exceeds `util_threshold`), on SloSpec's default
/// windows. Loop names are the layer names ("ingestion", "analytics",
/// "storage").
std::vector<SloSpec> MakeDefaultSloPack(double util_threshold = 90.0,
                                        double objective = 0.95);

}  // namespace flower::obs::health

#endif  // FLOWER_OBS_HEALTH_HEALTH_MONITOR_H_
