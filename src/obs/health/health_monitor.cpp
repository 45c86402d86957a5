#include "obs/health/health_monitor.h"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.h"
#include "obs/exporters.h"

namespace flower::obs::health {

namespace {

using internal::JsonEscape;
using internal::JsonNum;

}  // namespace

HealthMonitor::HealthMonitor(Telemetry* telemetry, HealthMonitorConfig config)
    : telemetry_(telemetry), config_(config), attributor_(config.attributor) {
  if (config_.eval_period_sec <= 0.0) config_.eval_period_sec = 60.0;
  if (config_.num_threads == 0) config_.num_threads = 1;
  if (config_.max_reports == 0) config_.max_reports = 1;
  if (config_.max_anomaly_events == 0) config_.max_anomaly_events = 1;
  if (config_.reattribute_every == 0) config_.reattribute_every = 1;
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(config_.num_threads);
  }
  if (config_.use_rollups) {
    config_.rollup.base_period_sec = config_.eval_period_sec;
    rollups_ = std::make_unique<RollupStore>(&telemetry_->metrics(),
                                             config_.rollup);
  }
  anomaly_counter_ = telemetry_->metrics().GetCounter("health.anomalies");
  report_counter_ = telemetry_->metrics().GetCounter("health.reports");
}

HealthMonitor::~HealthMonitor() = default;

Status HealthMonitor::AddSlo(const SloSpec& spec) {
  FLOWER_RETURN_NOT_OK(ValidateSloSpec(spec));
  for (const TrackedSlo& t : slos_) {
    if (t.tracker.spec().id == spec.id) {
      return Status::AlreadyExists("HealthMonitor: duplicate SLO id '" +
                                   spec.id + "'");
    }
  }
  TrackedSlo t{SloTracker(spec, config_.eval_period_sec)};
  LabelSet labels{{"slo", spec.id}};
  if (!spec.layer.empty()) labels.push_back({"layer", spec.layer});
  MetricsRegistry& reg = telemetry_->metrics();
  t.good_fraction = reg.GetGauge("slo.good_fraction", labels);
  t.burn_fast = reg.GetGauge("slo.burn_fast", labels);
  t.burn_slow = reg.GetGauge("slo.burn_slow", labels);
  t.budget_consumed = reg.GetGauge("slo.budget_consumed", labels);
  t.breached = reg.GetGauge("slo.breached", labels);
  t.alerts = reg.GetCounter("slo.alerts", labels);
  t.good_fraction->Set(1.0);
  TrackSloSeries(spec);
  slos_.push_back(std::move(t));
  return Status::OK();
}

void HealthMonitor::TrackSloSeries(const SloSpec& spec) {
  if (rollups_ == nullptr) return;
  switch (spec.kind) {
    case SliKind::kGaugeBelow:
    case SliKind::kGaugeAbove:
      rollups_->TrackGauge(spec.metric.name, spec.metric.labels);
      break;
    case SliKind::kCounterRatio:
      rollups_->TrackCounter(spec.metric.name, spec.metric.labels);
      rollups_->TrackCounter(spec.total.name, spec.total.labels);
      break;
    case SliKind::kHistogramBelow:
      rollups_->TrackHistogram(spec.metric.name, spec.metric.labels);
      break;
  }
}

Status HealthMonitor::Watch(AnomalyBank::Source source,
                            MetricSelector selector, std::string layer,
                            AnomalyConfig config) {
  if (rollups_ != nullptr) {
    if (source == AnomalyBank::Source::kGauge) {
      rollups_->TrackGauge(selector.name, selector.labels);
    } else {
      rollups_->TrackCounter(selector.name, selector.labels);
    }
  }
  return bank_.Watch(source, std::move(selector), std::move(layer), config);
}

void HealthMonitor::SetDependencyEdges(std::vector<DependencyEdge> edges) {
  attributor_.SetDependencyEdges(std::move(edges));
}

void HealthMonitor::PublishStreamGauges() {
  MetricsRegistry& reg = telemetry_->metrics();
  for (const AnomalyBank::StreamState& s : bank_.States()) {
    // Registration is idempotent (same pointer back), so resolving by
    // name each tick costs one locked map lookup per stream.
    reg.GetGauge("health.z", {{"stream", s.stream}})->Set(s.last_z);
  }
}

HealthReport HealthMonitor::BuildReport(SimTime now, const SloStatus& status) {
  std::vector<AnomalyEvent> recent(anomaly_log_.begin(), anomaly_log_.end());
  return attributor_.Attribute(now, status, telemetry_->decisions(), recent);
}

void HealthMonitor::Evaluate(SimTime now) {
  evaluations_ += 1;
  // Rollup path: one atomic read per tracked series into the reused
  // sparse snapshot. Raw path: deep copy of the whole registry. Both
  // feeds skip absent instruments, so the health trajectory is
  // identical — only the per-tick cost differs.
  MetricsSnapshot raw_snapshot;
  if (rollups_ != nullptr) {
    rollups_->Tick(now);
  } else {
    raw_snapshot = telemetry_->metrics().Snapshot();
  }
  const MetricsSnapshot& snapshot =
      rollups_ != nullptr ? rollups_->TrackedSnapshot() : raw_snapshot;

  std::vector<AnomalyEvent> events =
      bank_.UpdateAll(now, snapshot, pool_.get());
  for (AnomalyEvent& ev : events) {
    anomaly_counter_->Increment();
    telemetry_->metrics()
        .GetCounter("health.anomaly_events",
                    {{"stream", ev.stream},
                     {"kind", AnomalyKindToString(ev.kind)}})
        ->Increment();
    anomaly_log_.push_back(std::move(ev));
    while (anomaly_log_.size() > config_.max_anomaly_events) {
      anomaly_log_.pop_front();
    }
  }
  PublishStreamGauges();

  for (TrackedSlo& t : slos_) {
    uint64_t alerts_before = t.tracker.status().alerts_fired;
    bool breached_before = t.tracker.status().breached;
    t.tracker.Update(now, snapshot);
    const SloStatus& st = t.tracker.status();
    t.good_fraction->Set(st.good_fraction);
    t.burn_fast->Set(st.burn_fast);
    t.burn_slow->Set(st.burn_slow);
    t.budget_consumed->Set(st.budget_consumed);
    t.breached->Set(st.breached ? 1.0 : 0.0);
    if (st.alerts_fired > alerts_before) t.alerts->Increment();

    // Attribute on the alert edge, and refresh periodically while the
    // breach persists so long incidents get reports with current
    // evidence instead of only the onset picture.
    bool fresh_alert = st.alerts_fired > alerts_before;
    bool periodic_refresh =
        st.breached && breached_before &&
        st.evaluations % config_.reattribute_every == 0;
    if (fresh_alert || periodic_refresh) {
      reports_.push_back(BuildReport(now, st));
      report_counter_->Increment();
      while (reports_.size() > config_.max_reports) reports_.pop_front();
    }
    if (fresh_alert && alert_edge_hook_) alert_edge_hook_(now, st);
  }
}

uint8_t HealthMonitor::MaskFor(const std::string& layer) const {
  uint8_t mask = 0;
  for (const TrackedSlo& t : slos_) {
    if (!t.tracker.status().breached) continue;
    if (t.tracker.spec().layer.empty()) {
      mask |= kHealthFlowBreach;
    } else if (t.tracker.spec().layer == layer) {
      mask |= kHealthLayerBreach;
    }
  }
  for (const AnomalyBank::StreamState& s : bank_.States()) {
    if (s.anomalous && s.layer == layer) {
      mask |= kHealthAnomaly;
      break;
    }
  }
  return mask;
}

std::vector<SloStatus> HealthMonitor::Statuses() const {
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const TrackedSlo& t : slos_) out.push_back(t.tracker.status());
  return out;
}

std::vector<std::string> HealthMonitor::ActiveAlerts() const {
  std::vector<std::string> out;
  for (const TrackedSlo& t : slos_) {
    if (t.tracker.status().breached) out.push_back(t.tracker.spec().id);
  }
  return out;
}

void HealthMonitor::WriteJsonl(std::ostream& os) const {
  for (const TrackedSlo& t : slos_) {
    const SloSpec& spec = t.tracker.spec();
    const SloStatus& st = t.tracker.status();
    os << "{\"type\":\"slo\",\"id\":\"" << JsonEscape(st.id)
       << "\",\"layer\":\"" << JsonEscape(st.layer) << "\",\"kind\":\""
       << SliKindToString(spec.kind) << "\",\"metric\":\""
       << JsonEscape(spec.metric.ToString())
       << "\",\"objective\":" << JsonNum(spec.objective)
       << ",\"time\":" << JsonNum(st.time)
       << ",\"good_fraction\":" << JsonNum(st.good_fraction)
       << ",\"burn_fast\":" << JsonNum(st.burn_fast)
       << ",\"burn_slow\":" << JsonNum(st.burn_slow)
       << ",\"budget_consumed\":" << JsonNum(st.budget_consumed)
       << ",\"breached\":" << (st.breached ? "true" : "false")
       << ",\"breach_since\":" << JsonNum(st.breach_since)
       << ",\"alerts_fired\":" << st.alerts_fired
       << ",\"evaluations\":" << st.evaluations << "}\n";
  }
  for (const AnomalyEvent& ev : anomaly_log_) {
    os << "{\"type\":\"anomaly\",\"time\":" << JsonNum(ev.time)
       << ",\"stream\":\"" << JsonEscape(ev.stream) << "\",\"layer\":\""
       << JsonEscape(ev.layer) << "\",\"kind\":\""
       << AnomalyKindToString(ev.kind)
       << "\",\"value\":" << JsonNum(ev.value)
       << ",\"score\":" << JsonNum(ev.score) << "}\n";
  }
  for (const HealthReport& r : reports_) {
    os << "{\"type\":\"report\",\"time\":" << JsonNum(r.time)
       << ",\"slo\":\"" << JsonEscape(r.slo.id)
       << "\",\"burn_fast\":" << JsonNum(r.slo.burn_fast)
       << ",\"summary\":\"" << JsonEscape(r.summary) << "\",\"ranking\":[";
    for (size_t i = 0; i < r.ranking.size(); ++i) {
      const LayerAttribution& a = r.ranking[i];
      if (i > 0) os << ',';
      os << "{\"layer\":\"" << JsonEscape(a.layer)
         << "\",\"score\":" << JsonNum(a.score) << ",\"evidence\":[";
      for (size_t j = 0; j < a.evidence.size(); ++j) {
        const AttributionEvidence& e = a.evidence[j];
        if (j > 0) os << ',';
        os << "{\"kind\":\"" << JsonEscape(e.kind) << "\",\"weight\":"
           << JsonNum(e.weight) << ",\"detail\":\"" << JsonEscape(e.detail)
           << "\"}";
      }
      os << "]}";
    }
    os << "]}\n";
  }
}

Status HealthMonitor::ExportJsonl(const std::string& path) const {
  return ExportToFile(path, [this](std::ostream& os) { WriteJsonl(os); });
}

std::vector<SloSpec> MakeDefaultSloPack(double util_threshold,
                                        double objective) {
  std::vector<SloSpec> pack;
  for (const char* layer : {"ingestion", "analytics", "storage"}) {
    SloSpec s;
    s.id = std::string(layer) + "/utilization";
    s.layer = layer;
    s.kind = SliKind::kGaugeBelow;
    s.metric = {"loop.sensed_y", {{"loop", layer}, {"layer", layer}}};
    s.threshold = util_threshold;
    s.objective = objective;
    pack.push_back(std::move(s));
  }
  return pack;
}

}  // namespace flower::obs::health
