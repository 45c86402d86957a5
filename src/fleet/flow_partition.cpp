#include "fleet/flow_partition.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/units.h"
#include "fleet/partition_spec.h"
#include "workload/arrival.h"

namespace flower::fleet {

namespace {

bool FaultKindFromString(const std::string& name, sim::FaultKind* kind) {
  for (sim::FaultKind k :
       {sim::FaultKind::kActuatorFailure, sim::FaultKind::kActuatorThrottle,
        sim::FaultKind::kMetricGap, sim::FaultKind::kMetricDelay,
        sim::FaultKind::kSensorSpike}) {
    if (name == sim::FaultKindToString(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

std::shared_ptr<workload::ArrivalProcess> MakeArrival(
    const TenantConfig& t, double horizon_sec) {
  switch (t.pattern) {
    case ArrivalPattern::kConstant:
      return std::make_shared<workload::ConstantArrival>(t.base_rate_per_sec);
    case ArrivalPattern::kDiurnal:
      return std::make_shared<workload::DiurnalArrival>(
          t.base_rate_per_sec, t.amplitude_per_sec, t.period_sec,
          t.phase_sec);
    case ArrivalPattern::kFlashCrowd:
      return std::make_shared<workload::FlashCrowdArrival>(
          t.base_rate_per_sec, t.amplitude_per_sec, t.phase_sec,
          t.period_sec);
    case ArrivalPattern::kMmpp:
      return std::make_shared<workload::MmppArrival>(
          t.base_rate_per_sec, t.base_rate_per_sec + t.amplitude_per_sec,
          t.period_sec, t.period_sec, horizon_sec, t.seed);
  }
  return std::make_shared<workload::ConstantArrival>(t.base_rate_per_sec);
}

}  // namespace

Result<std::unique_ptr<FlowPartition>> FlowPartition::Create(
    const TenantConfig& tenant, const PartitionConfig& config, size_t index) {
  FLOWER_RETURN_NOT_OK(ValidateTenant(tenant, config));
  auto p = std::unique_ptr<FlowPartition>(new FlowPartition());
  p->tenant_ = tenant;
  p->capture_ = config.capture;
  p->granted_budget_usd_ = tenant.initial_budget_usd;
  p->effective_period_sec_ = tenant.arbitration_period_sec > 0.0
                                 ? tenant.arbitration_period_sec
                                 : config.arbitration_period_sec;
  p->sim_ = std::make_unique<sim::Simulation>();
  p->metrics_ = std::make_unique<cloudwatch::MetricStore>();
  p->telemetry_ = std::make_unique<obs::Telemetry>(config.decision_capacity);

  // The tenant's scheduled faults become a seeded injector wrapped
  // around the flow's sensors/actuators by the builder below.
  if (!tenant.faults.empty()) {
    p->chaos_ = std::make_unique<sim::FaultInjector>(p->sim_.get(),
                                                     tenant.seed);
    p->chaos_->SetTelemetry(p->telemetry_.get());
    for (const TenantFault& f : tenant.faults) {
      sim::FaultSpec fs;
      if (!FaultKindFromString(f.kind, &fs.kind)) {
        return Status::InvalidArgument("FlowPartition: unknown fault kind '" +
                                       f.kind + "'");
      }
      fs.target = f.target;
      fs.start = f.start;
      fs.end = f.end;
      fs.probability = f.probability;
      fs.delay_sec = f.delay_sec;
      fs.factor = f.factor;
      fs.offset = f.offset;
      FLOWER_ASSIGN_OR_RETURN(int fault_id, p->chaos_->Add(fs));
      (void)fault_id;
    }
  }

  flow::FlowConfig fc;
  fc.name = tenant.id + "-flow";
  fc.stream.name = tenant.id + "-stream";
  fc.stream.initial_shards = tenant.initial_shards;
  fc.stream.max_shards = tenant.max_shards;
  fc.cluster.name = tenant.id + "-storm";
  fc.cluster.tick_period_sec = config.storm_tick_period_sec;
  fc.table.name = tenant.id + "-table";
  fc.table.initial_wcu = tenant.initial_wcu;
  fc.table.max_wcu = tenant.max_wcu;
  fc.initial_workers = tenant.initial_workers;

  workload::ClickStreamConfig wl;
  wl.num_users = 1000;
  wl.num_urls = 100;
  wl.generator_instances = 1;
  wl.emit_period_sec = config.workload_emit_period_sec;

  auto layer_config = [&](double max_resource) {
    core::LayerElasticityConfig lc;
    lc.reference_utilization_pct = tenant.reference_utilization_pct;
    lc.monitoring_period_sec = tenant.monitoring_period_sec;
    lc.monitoring_window_sec = tenant.monitoring_period_sec;
    lc.max_resource = max_resource;
    return lc;
  };
  core::LayerElasticityConfig storage = layer_config(tenant.max_wcu);
  storage.min_resource = 5.0;

  core::FlowBuilder builder;
  builder.WithFlowConfig(fc)
      .WithIngestion(layer_config(tenant.max_shards))
      .WithAnalytics(layer_config(tenant.max_workers))
      .WithStorage(storage)
      .WithWorkload(MakeArrival(tenant, config.horizon_sec), wl)
      .WithSeed(tenant.seed)
      .WithTelemetry(p->telemetry_.get())
      .WithTenantLabel(tenant.id);
  if (p->chaos_ != nullptr) builder.WithFaultInjector(p->chaos_.get());
  FLOWER_ASSIGN_OR_RETURN(p->managed_,
                          builder.Build(p->sim_.get(), p->metrics_.get()));
  // Only the readers the builder wired read this store, so it keeps
  // just the history they can reach.
  FLOWER_RETURN_NOT_OK(
      p->metrics_->BoundHistory(p->managed_.metric_lookback_sec));
  // Each loop's layer index, so demand pricing walks the decision ring
  // without comparing layer names per record.
  const obs::LoopTable& loops = p->telemetry_->decisions().loops();
  for (size_t id = 0; id < loops.size(); ++id) {
    const std::string& name = loops[static_cast<obs::LoopId>(id)].layer;
    int layer = 0;
    for (int i = 0; i < core::kNumLayers; ++i) {
      if (name == core::LayerToString(static_cast<core::Layer>(i))) layer = i;
    }
    p->layer_of_loop_.push_back(layer);
  }

  // Flow -> layer re-planning under the arbiter's grant. The request is
  // refreshed from granted_budget_usd_ right before each solve; the
  // incremental plan cache then skips the solver entirely for periods
  // whose grant did not move.
  core::ReplanConfig rc;
  rc.request.hourly_budget_usd = p->granted_budget_usd_;
  rc.request.bounds[0] = {1.0, static_cast<double>(tenant.max_shards)};
  rc.request.bounds[1] = {1.0, static_cast<double>(tenant.max_workers)};
  rc.request.bounds[2] = {5.0, tenant.max_wcu};
  for (int i = 0; i < core::kNumLayers; ++i) {
    p->unit_price_[i] = rc.request.unit_price[i];
  }
  rc.solver = config.flow_solver;
  // Partitions advance inside the fleet's work-stealing sweep; nested
  // parallelism on another pool would oversubscribe, and a 16-member
  // re-plan gains nothing from threads, so per-flow solves run on one.
  rc.solver.num_threads = 1;
  rc.solver.seed = tenant.seed;
  rc.incremental = config.flow_incremental;
  // Re-plans track the tenant's *own* arbitration cadence, so a tenant
  // on a faster lattice sees each of its grants (a fleet-period cadence
  // would skip every boundary between fleet ticks).
  rc.period_sec = p->effective_period_sec_;
  rc.start_delay_sec = config.replan_offset_sec;
  FlowPartition* raw = p.get();
  rc.update_request = [raw](SimTime, core::ResourceShareRequest* req) {
    req->hourly_budget_usd = raw->granted_budget_usd_;
  };
  FLOWER_RETURN_NOT_OK(p->managed_.manager->EnableReplanning(std::move(rc)));

  if (config.capture.enabled) {
    p->recorder_ = std::make_unique<obs::replay::FlightRecorder>(
        config.capture.recorder);
    p->recorder_->SetIdentity(tenant.id, index, tenant.seed);
    p->recorder_->SetSpec(SerializePartitionSpec(tenant, config));
    for (const TenantFault& f : tenant.faults) p->recorder_->AddFault(f);
    p->managed_.manager->SetFlightRecorder(p->recorder_.get());
  }

  if (config.capture.health_trigger) {
    p->health_ = std::make_unique<obs::health::HealthMonitor>(
        p->telemetry_.get(), config.capture.health_eval_period_sec);
    // The default per-layer burn-rate SLOs over this tenant's
    // utilization gauges (the manager labels them {"tenant", id} — see
    // SetTenantLabel), on the capture's windows.
    for (obs::health::SloSpec& s : obs::health::MakeDefaultSloPack(
             config.capture.util_threshold, config.capture.slo_objective)) {
      s.metric.labels.emplace_back("tenant", tenant.id);
      s.fast_window_sec = config.capture.slo_fast_window_sec;
      s.slow_window_sec = config.capture.slo_slow_window_sec;
      FLOWER_RETURN_NOT_OK(p->health_->AddSlo(s));
    }
    FlowPartition* raw = p.get();
    p->managed_.manager->SetHealthAnnotator(
        [raw](const std::string& layer, SimTime) {
          return raw->health_->MaskFor(layer);
        });
    // An alert edge latches the capture trigger and (once) dumps the
    // bundle. The hook runs inside Evaluate, i.e. on this partition's
    // own simulation thread — no synchronization needed.
    p->health_->SetAlertEdgeHook(
        [raw](SimTime t, const obs::health::SloStatus& st) {
          if (raw->recorder_ == nullptr) return;
          raw->recorder_->Trigger(t, st.id, st.burn_fast, st.burn_slow);
          if (raw->capture_.bundle_dir.empty() || raw->dumped_) return;
          raw->dumped_ = true;
          ::mkdir(raw->capture_.bundle_dir.c_str(), 0755);
          std::string path =
              raw->capture_.bundle_dir + "/" + raw->tenant_.id + ".json";
          Status dump = obs::replay::WriteBundleJson(
              obs::replay::BundleFromRecorder(*raw->recorder_), path);
          if (dump.ok()) {
            raw->bundle_paths_.push_back(std::move(path));
          } else {
            FLOWER_LOG(Warning)
                << "FlowPartition: capture bundle dump failed: " << dump;
          }
        });
    FLOWER_RETURN_NOT_OK(p->sim_->SchedulePeriodic(
        config.capture.health_eval_period_sec,
        config.capture.health_eval_period_sec, [raw] {
          raw->health_->Evaluate(raw->sim_->Now());
          return true;
        }));
  }
  return p;
}

Status FlowPartition::AdvanceTo(SimTime t) {
  if (!std::isfinite(t)) {
    return Status::InvalidArgument("FlowPartition: advance target must be "
                                   "finite");
  }
  if (t < sim_->Now()) {
    return Status::InvalidArgument("FlowPartition: advance target in past");
  }
  sim_->RunUntil(t);
  return Status::OK();
}

double FlowPartition::PricedLatest(
    double value(const obs::ControlDecisionRecord&)) const {
  double amount[core::kNumLayers] = {
      static_cast<double>(tenant_.initial_shards),
      static_cast<double>(tenant_.initial_workers), tenant_.initial_wcu};
  bool have[core::kNumLayers] = {false, false, false};
  const obs::DecisionLog& log = telemetry_->decisions();
  int found = 0;
  for (size_t i = log.size(); i-- > 0 && found < core::kNumLayers;) {
    const obs::ControlDecisionRecord& r = log.at(i);
    int layer = layer_of_loop_[r.loop];
    double v = value(r);
    if (have[layer] || !std::isfinite(v)) continue;
    amount[layer] = std::max(0.0, v);
    have[layer] = true;
    ++found;
  }
  double usd = 0.0;
  for (int i = 0; i < core::kNumLayers; ++i) usd += amount[i] * unit_price_[i];
  return usd;
}

double FlowPartition::DemandUsdPerHour() const {
  return PricedLatest(
      [](const obs::ControlDecisionRecord& r) { return r.raw_u; });
}

double FlowPartition::SpendUsdPerHour() const {
  return PricedLatest(
      [](const obs::ControlDecisionRecord& r) { return r.clamped_u; });
}

uint64_t FlowPartition::StepsTaken() const {
  return telemetry_->decisions().total_appended();
}

void FlowPartition::RecordGrant(SimTime t, double demand_usd,
                                double grant_usd) {
  if (recorder_ != nullptr) recorder_->RecordGrant(t, demand_usd, grant_usd);
}

Result<obs::replay::CaptureBundle> FlowPartition::MakeBundle() const {
  if (recorder_ == nullptr) {
    return Status::NotFound("FlowPartition: capture not enabled for tenant '" +
                            tenant_.id + "'");
  }
  return obs::replay::BundleFromRecorder(*recorder_);
}

Status FlowPartition::DumpBundle(const std::string& path) {
  if (recorder_ == nullptr) {
    return Status::NotFound("FlowPartition: capture not enabled for tenant '" +
                            tenant_.id + "'");
  }
  recorder_->Trigger(sim_->Now(), "explicit");
  FLOWER_RETURN_NOT_OK(obs::replay::WriteBundleJson(
      obs::replay::BundleFromRecorder(*recorder_), path));
  bundle_paths_.push_back(path);
  return Status::OK();
}

void FlowPartition::AppendDigest(std::string* out) const {
  const obs::DecisionLog& log = telemetry_->decisions();
  char line[obs::kDigestLineCapacity];
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::ControlDecisionRecord& r = log.at(i);
    size_t len = obs::FormatDigestLine(r, log.loop(r).name, line);
    *out += tenant_.id;
    *out += ' ';
    out->append(line, len);
    *out += '\n';
  }
}

}  // namespace flower::fleet
