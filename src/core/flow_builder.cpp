#include "core/flow_builder.h"

#include <cmath>

namespace flower::core {

FlowBuilder::FlowBuilder() {
  // Wizard defaults: modest bounds per layer, 60 s monitoring.
  ingestion_.max_resource = 64.0;
  analytics_.max_resource = 40.0;
  storage_.max_resource = 2000.0;
  storage_.min_resource = 5.0;
}

FlowBuilder& FlowBuilder::WithFlowConfig(flow::FlowConfig config) {
  flow_config_ = std::move(config);
  return *this;
}
FlowBuilder& FlowBuilder::WithIngestion(LayerElasticityConfig config) {
  ingestion_ = config;
  return *this;
}
FlowBuilder& FlowBuilder::WithAnalytics(LayerElasticityConfig config) {
  analytics_ = config;
  return *this;
}
FlowBuilder& FlowBuilder::WithStorage(LayerElasticityConfig config) {
  storage_ = config;
  return *this;
}
FlowBuilder& FlowBuilder::WithControllerKind(ControllerKind kind) {
  ingestion_.controller = kind;
  analytics_.controller = kind;
  storage_.controller = kind;
  return *this;
}
FlowBuilder& FlowBuilder::WithWorkload(
    std::shared_ptr<workload::ArrivalProcess> arrival,
    workload::ClickStreamConfig config) {
  arrival_ = std::move(arrival);
  workload_config_ = config;
  return *this;
}
FlowBuilder& FlowBuilder::WithSeed(uint64_t seed) {
  seed_ = seed;
  return *this;
}
FlowBuilder& FlowBuilder::WithResilience(ResiliencePolicy policy) {
  ingestion_.resilience = policy;
  analytics_.resilience = policy;
  storage_.resilience = policy;
  return *this;
}
FlowBuilder& FlowBuilder::WithFaultInjector(sim::FaultInjector* injector) {
  fault_injector_ = injector;
  return *this;
}
FlowBuilder& FlowBuilder::WithTelemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  return *this;
}
FlowBuilder& FlowBuilder::WithTenantLabel(std::string tenant) {
  tenant_label_ = std::move(tenant);
  return *this;
}

Result<ManagedFlow> FlowBuilder::Build(
    sim::Simulation* sim, cloudwatch::MetricStore* metrics) const {
  if (metrics == nullptr) {
    return Status::InvalidArgument(
        "FlowBuilder: a metric store is required (controllers sense "
        "through it)");
  }
  ManagedFlow mf;
  FLOWER_ASSIGN_OR_RETURN(
      mf.flow, flow::DataAnalyticsFlow::Create(sim, metrics, flow_config_));
  if (arrival_ != nullptr) {
    FLOWER_RETURN_NOT_OK(
        mf.flow->AttachWorkload(arrival_, workload_config_, seed_));
  }
  mf.manager = std::make_unique<ElasticityManager>(sim, metrics, telemetry_);
  if (telemetry_ != nullptr) {
    if (fault_injector_ != nullptr) fault_injector_->SetTelemetry(telemetry_);
    sim->SetTelemetry(telemetry_);
  }
  if (!tenant_label_.empty()) {
    FLOWER_RETURN_NOT_OK(mf.manager->SetTenantLabel(tenant_label_));
    FLOWER_RETURN_NOT_OK(mf.manager->SetTraceScope(tenant_label_));
  }

  flow::DataAnalyticsFlow* flow = mf.flow.get();

  // Feedforward controllers sense an upstream "driver" signal. The
  // natural driver for every layer is the ingestion arrival rate
  // (records/s, including throttled attempts), which §3.1 showed
  // predicts downstream load.
  cloudwatch::MetricStore* store = metrics;
  std::string stream_name = flow->stream_name();
  auto arrival_rate_driver = [store, stream_name](
                                 SimTime now) -> Result<double> {
    cloudwatch::MetricId in{"Flower/Kinesis", "IncomingRecords",
                            stream_name};
    cloudwatch::MetricId throttled{"Flower/Kinesis", "ThrottledRecords",
                                   stream_name};
    // GetStatistic windows are (t0, t1], so a datapoint published at
    // exactly `now` is seen by this read and by no other.
    const double window = 120.0;
    FLOWER_ASSIGN_OR_RETURN(
        double accepted,
        store->GetStatistic(in, now - window, now,
                            cloudwatch::Statistic::kSum));
    double rejected = store->GetStatistic(throttled, now - window, now,
                                          cloudwatch::Statistic::kSum)
                          .ValueOr(0.0);
    return (accepted + rejected) / window;
  };

  auto attach = [&](Layer layer, const LayerElasticityConfig& lc,
                    cloudwatch::MetricId metric, double initial_u,
                    double gain_scale,
                    std::function<Status(double)> actuator) -> Status {
    if (!lc.enabled) return Status::OK();
    control::ActuatorLimits limits;
    limits.min = lc.min_resource;
    limits.max = lc.max_resource;
    limits.integer = true;
    std::unique_ptr<control::Controller> controller;
    ControllerKind kind = lc.controller;
    if (kind == ControllerKind::kFeedforward &&
        layer == Layer::kStorage) {
      // The arrival rate does not predict storage writes for this flow
      // (the paper's §3.1 negative finding: no Kinesis↔DynamoDB write
      // dependency — the sliding-window aggregation decouples them), so
      // feedforward from that driver would mis-provision the table.
      // Storage falls back to Flower's feedback controller.
      kind = ControllerKind::kAdaptiveGain;
    }
    if (kind == ControllerKind::kFeedforward) {
      FLOWER_ASSIGN_OR_RETURN(
          controller,
          MakeFeedforwardController(lc.reference_utilization_pct, limits,
                                    arrival_rate_driver, gain_scale));
    } else {
      FLOWER_ASSIGN_OR_RETURN(
          controller,
          MakeController(kind, lc.reference_utilization_pct, limits,
                         gain_scale));
    }
    LayerControlConfig cfg;
    cfg.layer = layer;
    cfg.sensor_metric = std::move(metric);
    cfg.monitoring_period_sec = lc.monitoring_period_sec;
    cfg.monitoring_window_sec = lc.monitoring_window_sec;
    cfg.start_delay_sec = lc.monitoring_period_sec;
    cfg.controller = std::move(controller);
    cfg.actuator = std::move(actuator);
    cfg.initial_u = initial_u;
    cfg.resilience = lc.resilience;
    if (fault_injector_ != nullptr) {
      std::string target = LayerToString(layer);
      cfg.actuator =
          fault_injector_->WrapActuator(target, std::move(cfg.actuator));
      cfg.sensor = fault_injector_->WrapSensor(
          target, mf.manager->MakeDefaultSensor(cfg));
    }
    return mf.manager->Attach(std::move(cfg));
  };

  FLOWER_RETURN_NOT_OK(attach(
      Layer::kIngestion, ingestion_,
      {"Flower/Kinesis", "WriteUtilization", flow->stream_name()},
      static_cast<double>(flow->stream().shard_count()), 1.0,
      [flow](double u) {
        return flow->stream().UpdateShardCount(
            static_cast<int>(std::lround(u)));
      }));

  FLOWER_RETURN_NOT_OK(attach(
      Layer::kAnalytics, analytics_,
      {"Flower/Storm", "CpuUtilization", flow->cluster_name()},
      static_cast<double>(flow->cluster().worker_count()), 1.0,
      [flow](double u) {
        return flow->cluster().SetWorkerCount(
            static_cast<int>(std::lround(u)));
      }));

  // Storage gains scale with the WCU range (capacity units count in
  // hundreds, not single digits).
  double storage_scale = std::max(1.0, storage_.max_resource / 100.0);
  FLOWER_RETURN_NOT_OK(attach(
      Layer::kStorage, storage_,
      {"Flower/DynamoDB", "WriteUtilization", flow->table_name()},
      flow->table().provisioned_wcu(), storage_scale, [flow](double u) {
        return flow->table().SetProvisionedThroughput(
            u, flow->table().provisioned_rcu());
      }));

  return mf;
}

}  // namespace flower::core
