#ifndef FLOWER_FLEET_FLOW_PARTITION_H_
#define FLOWER_FLEET_FLOW_PARTITION_H_

#include <memory>
#include <string>
#include <vector>

#include "cloudwatch/metric_store.h"
#include "core/flow_builder.h"
#include "fleet/tenant.h"
#include "obs/health/health_monitor.h"
#include "obs/replay/bundle.h"
#include "obs/replay/flight_recorder.h"
#include "obs/telemetry.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"

namespace flower::fleet {

/// Flight-recorder / postmortem knobs of one partition. The recorder
/// itself is allocation-capped (see obs::replay::RecorderConfig);
/// health_trigger additionally runs a per-partition HealthMonitor with
/// burn-rate SLOs so an alert edge arms the capture automatically.
struct CaptureConfig {
  bool enabled = false;
  /// Evaluate per-layer burn-rate SLOs every health_eval_period_sec and
  /// trigger the recorder (plus a bundle dump when bundle_dir is set)
  /// on the first alert edge.
  bool health_trigger = false;
  double health_eval_period_sec = 60.0;
  /// Per-layer utilization SLO shape (MakeDefaultSloPack semantics).
  double util_threshold = 90.0;
  double slo_objective = 0.95;
  double slo_fast_window_sec = 300.0;
  double slo_slow_window_sec = 3600.0;
  obs::replay::RecorderConfig recorder;
  /// When non-empty, an alert-edge trigger dumps the capture bundle to
  /// `<bundle_dir>/<tenant>.json` (one dump per partition; created if
  /// missing).
  std::string bundle_dir;
};

/// Shared partition-shaping knobs, set once by the FleetManager.
/// Defaults are tuned for fleet scale: coarse service ticks and a small
/// decision ring keep a thousand partitions tractable while leaving
/// every control decision observable.
struct PartitionConfig {
  /// Fleet arbitration cadence; also each flow's re-plan period.
  double arbitration_period_sec = 900.0;
  /// Re-plans fire this long *after* each period boundary, so they see
  /// the budget granted by the arbitration that opened the period (the
  /// boundary itself belongs to the previous advance — RunUntil's end
  /// is inclusive).
  double replan_offset_sec = 1.0;
  /// Longest simulated horizon (pre-samples MMPP switch schedules).
  double horizon_sec = 86400.0;
  /// Workload/service cadence (coarser than the single-flow defaults).
  double workload_emit_period_sec = 5.0;
  double storm_tick_period_sec = 5.0;
  /// Decision-log ring capacity per partition.
  size_t decision_capacity = 256;
  /// Per-flow NSGA-II re-plan settings (the flow -> layer level of the
  /// hierarchical planner). Tiny by default — a thousand flows re-plan
  /// every period — with warm starts and the plan cache on so unchanged
  /// grants skip the solver entirely.
  opt::Nsga2Config flow_solver = [] {
    opt::Nsga2Config c;
    c.population_size = 16;
    c.generations = 10;
    return c;
  }();
  core::IncrementalPlanning flow_incremental = [] {
    core::IncrementalPlanning inc;
    inc.warm_start = true;
    inc.cache = true;
    inc.stall_generations = 3;
    return inc;
  }();
  /// Flight-recorder / postmortem capture.
  CaptureConfig capture;
};

/// One tenant's self-contained simulation partition: its own clock
/// (sim::Simulation), metric store (bounded to what its sensors can
/// reach), telemetry hub, and managed flow.
/// Nothing here is shared with other partitions, so the FleetManager
/// can advance many partitions concurrently over a ThreadPool and the
/// result of each is independent of the thread that ran it — the
/// determinism contract of the fleet merge.
class FlowPartition {
 public:
  /// Builds and starts the partition (flow running, loops attached,
  /// re-planning scheduled). `index` is the tenant's position in the
  /// fleet (stable ordering, the capture bundle's identity).
  /// InvalidArgument when ValidateTenant rejects the tenant under
  /// `config`.
  static Result<std::unique_ptr<FlowPartition>> Create(
      const TenantConfig& tenant, const PartitionConfig& config,
      size_t index);

  /// Runs this partition's simulation up to (and including) `t`.
  /// Safe to call concurrently with other partitions' AdvanceTo — never
  /// with this one's. InvalidArgument when `t` is not finite or lies in
  /// the past.
  Status AdvanceTo(SimTime t);

  /// Sets the hourly budget the next re-plan will request under (the
  /// arbiter's grant for this tenant).
  void SetBudget(double usd_per_hour) { granted_budget_usd_ = usd_per_hour; }
  double granted_budget_usd() const { return granted_budget_usd_; }

  /// Estimated hourly dollar demand: the controllers' latest *unclamped*
  /// asks (raw_u) priced per layer. Unclamped so a tenant throttled by a
  /// small grant still signals its true need to the arbiter; before the
  /// first control step it is the provisioned resources' cost.
  double DemandUsdPerHour() const;

  /// Hourly cost of the latest *applied* actuations (clamped_u priced
  /// per layer); provisioned cost before the first step.
  double SpendUsdPerHour() const;

  /// Control steps taken so far (decision records ever appended).
  uint64_t StepsTaken() const;

  /// This partition's arbitration cadence: the tenant's own
  /// `arbitration_period_sec` when positive, else the fleet-wide
  /// period it was created under. Also the flow's re-plan period.
  double effective_period_sec() const { return effective_period_sec_; }

  /// Appends this partition's canonical control-decision digest: one
  /// line per retained decision record, formatted identically across
  /// runs. Byte-identical digests at different thread counts are the
  /// fleet determinism verdict.
  void AppendDigest(std::string* out) const;

  /// Mirrors one arbiter grant into the flight recorder (no-op when
  /// capture is off). The fleet sweep calls it with SetBudget for every
  /// grant, so a capture taken mid-window carries the grant that shaped
  /// the window's re-plan.
  void RecordGrant(SimTime t, double demand_usd, double grant_usd);

  /// Snapshot of the flight recorder as a capture bundle. NotFound when
  /// capture is disabled.
  Result<obs::replay::CaptureBundle> MakeBundle() const;

  /// Dumps the capture bundle to `path` (latching an "explicit" trigger
  /// at the current sim time if none fired yet). NotFound when capture
  /// is disabled.
  Status DumpBundle(const std::string& path);

  /// Bundle files written so far (alert-edge auto-dumps + DumpBundle).
  const std::vector<std::string>& bundle_paths() const {
    return bundle_paths_;
  }

  const TenantConfig& tenant() const { return tenant_; }
  sim::Simulation& sim() { return *sim_; }
  /// The partition's private metric store, bounded to the longest
  /// lookback of its loops' sensors (MetricStore::BoundHistory).
  const cloudwatch::MetricStore& metrics() const { return *metrics_; }
  obs::Telemetry& telemetry() { return *telemetry_; }
  core::ElasticityManager& manager() { return *managed_.manager; }
  /// Null unless capture.enabled.
  obs::replay::FlightRecorder* recorder() { return recorder_.get(); }
  const obs::replay::FlightRecorder* recorder() const {
    return recorder_.get();
  }
  /// Null unless capture.health_trigger.
  obs::health::HealthMonitor* health() { return health_.get(); }

 private:
  FlowPartition() = default;

  /// Hourly cost of each layer's latest finite `value` in the retained
  /// decision records, newest first; the provisioned amount for a layer
  /// with none yet.
  double PricedLatest(double value(const obs::ControlDecisionRecord&)) const;

  TenantConfig tenant_;
  CaptureConfig capture_;
  double unit_price_[core::kNumLayers] = {0.0, 0.0, 0.0};
  /// core::Layer index of each loop id in the decision log's loop table.
  std::vector<int> layer_of_loop_;
  double granted_budget_usd_ = 0.0;
  double effective_period_sec_ = 0.0;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloudwatch::MetricStore> metrics_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<sim::FaultInjector> chaos_;
  std::unique_ptr<obs::replay::FlightRecorder> recorder_;
  std::unique_ptr<obs::health::HealthMonitor> health_;
  std::vector<std::string> bundle_paths_;
  bool dumped_ = false;  ///< One auto-dump per partition.
  core::ManagedFlow managed_;
};

}  // namespace flower::fleet

#endif  // FLOWER_FLEET_FLOW_PARTITION_H_
