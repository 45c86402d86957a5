#ifndef FLOWER_CORE_FLOW_BUILDER_H_
#define FLOWER_CORE_FLOW_BUILDER_H_

#include <memory>
#include <optional>
#include <string>

#include "core/controller_factory.h"
#include "core/elasticity_manager.h"
#include "flow/flow.h"
#include "sim/fault_injector.h"
#include "workload/arrival.h"
#include "workload/clickstream.h"

namespace flower::core {

/// Per-layer elasticity settings chosen in the configuration wizard
/// (demo step 2): which controller family, the desired utilization
/// reference, resource bounds, and the monitoring cadence.
struct LayerElasticityConfig {
  bool enabled = true;
  ControllerKind controller = ControllerKind::kAdaptiveGain;
  double reference_utilization_pct = 60.0;
  double min_resource = 1.0;
  double max_resource = 100.0;
  /// The control period must cover the slowest actuation (VM boot is
  /// ~90 s) or the controller reacts to measurements taken while its
  /// previous action was still in flight and limit-cycles.
  double monitoring_period_sec = 120.0;
  double monitoring_window_sec = 120.0;
  /// Retry / circuit-breaker / sensor-hardening knobs for this layer's
  /// loop. Everything off by default (fair-weather behavior).
  ResiliencePolicy resilience;
};

/// A fully assembled managed flow: the data analytics flow plus
/// Flower's elasticity manager attached to its three layers.
struct ManagedFlow {
  std::unique_ptr<flow::DataAnalyticsFlow> flow;
  std::unique_ptr<ElasticityManager> manager;
  /// The longest lookback, in seconds, of the metric-store readers the
  /// builder wired: each loop's monitoring window plus the longest
  /// metric-delay fault registered on its layer when Build ran, and the
  /// feedforward driver's window. A store read by nothing else can be
  /// bounded to it (cloudwatch::MetricStore::BoundHistory).
  double metric_lookback_sec = 0.0;
};

/// Programmatic equivalent of the demo's drag-and-drop Flow Builder
/// (Fig. 5) plus the Flow Configuration Wizard: assembles the
/// click-stream flow, validates the configuration, attaches one
/// controller per enabled layer with the right sensor metric and
/// actuator, and returns the running ManagedFlow.
///
///   ManagedFlow mf = FlowBuilder()
///       .WithIngestion({...})
///       .WithAnalytics({...})
///       .WithStorage({...})
///       .WithWorkload(arrival)
///       .Build(&sim, &metrics).MoveValueOrDie();
class FlowBuilder {
 public:
  FlowBuilder();

  FlowBuilder& WithFlowConfig(flow::FlowConfig config);
  FlowBuilder& WithIngestion(LayerElasticityConfig config);
  FlowBuilder& WithAnalytics(LayerElasticityConfig config);
  FlowBuilder& WithStorage(LayerElasticityConfig config);
  /// Uses this controller family for all enabled layers.
  FlowBuilder& WithControllerKind(ControllerKind kind);
  FlowBuilder& WithWorkload(std::shared_ptr<workload::ArrivalProcess> arrival,
                            workload::ClickStreamConfig config = {});
  FlowBuilder& WithSeed(uint64_t seed);
  /// Uses this resilience policy for all enabled layers.
  FlowBuilder& WithResilience(ResiliencePolicy policy);
  /// Routes every layer's actuator and sensor through `injector`
  /// (which must outlive the built ManagedFlow). Loop names —
  /// "ingestion", "analytics", "storage" — are the fault targets.
  FlowBuilder& WithFaultInjector(sim::FaultInjector* injector);
  /// Routes the manager's telemetry (metrics, decision log, spans) to
  /// an external hub, shared with the fault injector. Must outlive the
  /// built ManagedFlow.
  FlowBuilder& WithTelemetry(obs::Telemetry* telemetry);
  /// Tenant id for fleet runs: stamps every instrument the manager
  /// registers with a {"tenant", id} label (see
  /// ElasticityManager::SetTenantLabel) and renders the flow's trace in
  /// its own scope. Applied before any loop attaches.
  FlowBuilder& WithTenantLabel(std::string tenant);

  /// Validates and assembles everything. Errors propagate from any
  /// component (invalid bounds, references, etc.).
  Result<ManagedFlow> Build(sim::Simulation* sim,
                            cloudwatch::MetricStore* metrics) const;

 private:
  flow::FlowConfig flow_config_;
  LayerElasticityConfig ingestion_;
  LayerElasticityConfig analytics_;
  LayerElasticityConfig storage_;
  std::shared_ptr<workload::ArrivalProcess> arrival_;
  workload::ClickStreamConfig workload_config_;
  uint64_t seed_ = 42;
  sim::FaultInjector* fault_injector_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  std::string tenant_label_;
};

}  // namespace flower::core

#endif  // FLOWER_CORE_FLOW_BUILDER_H_
