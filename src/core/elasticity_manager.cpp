#include "core/elasticity_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/replay/flight_recorder.h"

namespace flower::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// (time, record.*field) of each retained record of `loop` whose outcome
// `keep` accepts, oldest first.
TimeSeries LoopTrace(const obs::DecisionLog* log, obs::LoopId loop,
                     bool (*keep)(obs::StepOutcome),
                     double obs::ControlDecisionRecord::*field) {
  TimeSeries out;
  if (log == nullptr) return out;
  for (size_t i = 0; i < log->size(); ++i) {
    const obs::ControlDecisionRecord& r = log->at(i);
    if (r.loop == loop && keep(r.outcome)) {
      out.AppendUnchecked(r.time, r.*field);
    }
  }
  return out;
}

Status ValidateResilience(const ResiliencePolicy& p) {
  if (p.retry.max_retries < 0) {
    return Status::InvalidArgument("ElasticityManager: negative max_retries");
  }
  if (p.retry.initial_backoff_sec < 0.0 || p.retry.max_backoff_sec < 0.0) {
    return Status::InvalidArgument("ElasticityManager: negative backoff");
  }
  if (p.retry.backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "ElasticityManager: backoff multiplier must be >= 1");
  }
  if (p.retry.jitter_fraction < 0.0 || p.retry.jitter_fraction > 1.0) {
    return Status::InvalidArgument(
        "ElasticityManager: jitter fraction must be in [0, 1]");
  }
  if (p.breaker.failure_threshold < 0) {
    return Status::InvalidArgument(
        "ElasticityManager: negative breaker threshold");
  }
  if (p.breaker.failure_threshold > 0 && p.breaker.cooldown_sec <= 0.0) {
    return Status::InvalidArgument(
        "ElasticityManager: breaker cooldown must be positive");
  }
  if (p.sensor.max_hold_sec < 0.0) {
    return Status::InvalidArgument("ElasticityManager: negative max_hold");
  }
  return Status::OK();
}

}  // namespace

TimeSeries LayerControlState::sensed() const {
  return LoopTrace(
      log, loop_id,
      [](obs::StepOutcome o) { return o != obs::StepOutcome::kSensorMiss; },
      &obs::ControlDecisionRecord::sensed_y);
}

TimeSeries LayerControlState::actuations() const {
  return LoopTrace(
      log, loop_id,
      [](obs::StepOutcome o) {
        return o == obs::StepOutcome::kActuated ||
               o == obs::StepOutcome::kActuationFailed ||
               o == obs::StepOutcome::kBreakerOpen;
      },
      &obs::ControlDecisionRecord::clamped_u);
}

ElasticityManager::ElasticityManager(sim::Simulation* sim,
                                     const cloudwatch::MetricStore* metrics,
                                     obs::Telemetry* telemetry)
    : sim_(sim),
      metrics_(metrics),
      owned_telemetry_(telemetry == nullptr
                           ? std::make_unique<obs::Telemetry>()
                           : nullptr),
      telemetry_(telemetry == nullptr ? owned_telemetry_.get() : telemetry) {}

Status ElasticityManager::SetTraceScope(const std::string& scope) {
  if (scope.empty()) {
    return Status::InvalidArgument("ElasticityManager: empty trace scope");
  }
  if (!loops_.empty()) {
    return Status::FailedPrecondition(
        "ElasticityManager: SetTraceScope must precede Attach");
  }
  trace_pid_ = telemetry_->spans().RegisterScope(scope);
  return Status::OK();
}

Status ElasticityManager::SetTenantLabel(const std::string& tenant) {
  if (tenant.empty()) {
    return Status::InvalidArgument("ElasticityManager: empty tenant label");
  }
  if (!loops_.empty() || replan_ != nullptr) {
    return Status::FailedPrecondition(
        "ElasticityManager: SetTenantLabel must precede Attach and "
        "EnableReplanning");
  }
  tenant_ = tenant;
  return Status::OK();
}

obs::LabelSet ElasticityManager::WithTenant(obs::LabelSet labels) const {
  if (!tenant_.empty()) labels.emplace_back("tenant", tenant_);
  return labels;
}

void ElasticityManager::SetHealthAnnotator(
    std::function<obs::HealthMask(const std::string& layer, SimTime now)>
        annotator) {
  health_annotator_ = std::move(annotator);
}

void ElasticityManager::SetFlightRecorder(
    obs::replay::FlightRecorder* recorder) {
  flight_recorder_ = recorder;
  if (recorder != nullptr) {
    recorder->SetLoopTable(&telemetry_->decisions().loops());
  }
}

Status ElasticityManager::Attach(LayerControlConfig config) {
  if (config.name.empty()) config.name = LayerToString(config.layer);
  if (loops_.count(config.name) > 0) {
    return Status::AlreadyExists("ElasticityManager: loop '" + config.name +
                                 "' already attached");
  }
  if (config.controller == nullptr) {
    return Status::InvalidArgument("ElasticityManager: missing controller");
  }
  if (!config.actuator) {
    return Status::InvalidArgument("ElasticityManager: missing actuator");
  }
  if (config.monitoring_period_sec <= 0.0 ||
      config.monitoring_window_sec <= 0.0) {
    return Status::InvalidArgument(
        "ElasticityManager: monitoring period/window must be positive");
  }
  FLOWER_RETURN_NOT_OK(ValidateResilience(config.resilience));
  const std::string layer_name = LayerToString(config.layer);
  FLOWER_ASSIGN_OR_RETURN(
      obs::LoopId loop_id,
      telemetry_->decisions().loops().Register(
          {config.name, layer_name, config.controller->name()}));
  auto attached = std::make_unique<Attached>();
  attached->state.log = &telemetry_->decisions();
  attached->state.loop_id = loop_id;
  attached->config = std::move(config);
  attached->config.controller->Reset(attached->config.initial_u);
  attached->sense = attached->config.sensor
                        ? attached->config.sensor
                        : MakeDefaultSensor(attached->config);
  attached->rng = Rng(attached->config.resilience.retry.jitter_seed);

  // Register the loop's instruments and trace track.
  obs::LabelSet labels =
      WithTenant({{"loop", attached->config.name}, {"layer", layer_name}});
  obs::MetricsRegistry& m = telemetry_->metrics();
  LayerControlState::Counters& c = attached->state.counters;
  c.sensor_misses = m.GetCounter("loop.sensor_misses", labels);
  c.actuation_failures = m.GetCounter("loop.actuation_failures", labels);
  c.actuation_retries = m.GetCounter("loop.actuation_retries", labels);
  c.retry_successes = m.GetCounter("loop.retry_successes", labels);
  c.breaker_trips = m.GetCounter("loop.breaker_trips", labels);
  c.breaker_skipped_steps = m.GetCounter("loop.breaker_skipped_steps", labels);
  c.stale_sensor_reads = m.GetCounter("loop.stale_sensor_reads", labels);
  attached->gauge_y = m.GetGauge("loop.sensed_y", labels);
  attached->gauge_u = m.GetGauge("loop.actuation", labels);
  attached->gauge_gain = m.GetGauge("loop.gain", labels);
  attached->breach_steps = m.GetCounter("loop.breach_steps", labels);
  attached->trace_tid = next_trace_tid_++;
  telemetry_->spans().SetTrackName(trace_pid_, attached->trace_tid,
                                   "loop:" + attached->config.name);

  Attached* raw = attached.get();
  Status st = sim_->SchedulePeriodic(
      sim_->Now() + attached->config.start_delay_sec,
      attached->config.monitoring_period_sec, [this, raw] {
        Step(raw);
        return true;
      });
  FLOWER_RETURN_NOT_OK(st);
  loops_[attached->config.name] = std::move(attached);
  return Status::OK();
}

std::function<Result<double>(SimTime)> ElasticityManager::MakeDefaultSensor(
    const LayerControlConfig& config) const {
  const cloudwatch::MetricStore* metrics = metrics_;
  cloudwatch::MetricId metric = config.sensor_metric;
  double window = config.monitoring_window_sec;
  return [metrics, metric, window](SimTime now) -> Result<double> {
    return metrics->GetStatistic(metric, now - window, now,
                                 cloudwatch::Statistic::kAverage);
  };
}

void ElasticityManager::Step(Attached* a) {
  if (a->paused) return;
  SimTime now = sim_->Now();
  const LayerControlConfig& cfg = a->config;
  // A new control step supersedes any retry chain still in flight.
  ++a->epoch;
  obs::SpanCollector& spans = telemetry_->spans();
  a->current_sense_span = 0;
  a->current_decide_span = 0;

  Result<double> raw = a->sense(now);
  double y;
  bool stale = false;
  if (raw.ok()) {
    y = *raw;
    a->has_last_good = true;
    a->last_good_value = y;
    a->last_good_time = now;
  } else {
    const SensorPolicy& sp = cfg.resilience.sensor;
    bool can_hold = sp.on_miss == SensorMissPolicy::kHoldLastValue &&
                    a->has_last_good &&
                    (sp.max_hold_sec <= 0.0 ||
                     now - a->last_good_time <= sp.max_hold_sec);
    if (!can_hold) {
      a->state.counters.sensor_misses->Increment();
      // No measurement, so the decide span has no sense parent; it
      // still links to the plan whose bounds were in force. Nothing was
      // applied, so its value is NaN like the record's clamped_u.
      a->current_decide_span = spans.Emit(
          obs::SpanKind::kDecide, cfg.name, now, 0.0, trace_pid_,
          a->trace_tid, /*parent=*/0, last_plan_span_, /*value=*/kNaN,
          static_cast<uint8_t>(obs::StepOutcome::kSensorMiss));
      RecordDecision(a, now, kNaN, /*stale=*/false, kNaN, kNaN, kNaN,
                     obs::StepOutcome::kSensorMiss);
      return;
    }
    y = a->last_good_value;
    stale = true;
    a->state.counters.stale_sensor_reads->Increment();
  }

  // Close the settling interval of the last successful actuation with
  // what the sensor now observes (Eq. 7: effects are judged at the next
  // monitoring instant), then open this step's causal chain.
  if (a->pending_effect_parent != 0 && raw.ok()) {
    spans.Emit(obs::SpanKind::kEffect, cfg.name, a->pending_effect_start,
               now - a->pending_effect_start, trace_pid_, a->trace_tid,
               a->pending_effect_parent, /*follows=*/0, y);
    a->pending_effect_parent = 0;
  }
  a->current_sense_span =
      spans.Emit(obs::SpanKind::kSense, cfg.name, now, 0.0, trace_pid_,
                 a->trace_tid, /*parent=*/0, /*follows=*/0, y,
                 static_cast<uint8_t>(stale ? 1 : 0));
  a->current_decide_span =
      spans.Begin(obs::SpanKind::kDecide, cfg.name, now, trace_pid_,
                  a->trace_tid, a->current_sense_span, last_plan_span_);

  // Gain and raw output come from this Update only if it ran the law;
  // an open breaker still records what the law asked for.
  const uint64_t steps_before = cfg.controller->steps();
  auto u = cfg.controller->Update(now, y);
  const bool ran = cfg.controller->steps() != steps_before;
  const double gain = ran ? cfg.controller->last_gain() : kNaN;
  const double raw_u = ran ? cfg.controller->last_raw_u() : kNaN;
  if (!u.ok()) {
    a->state.counters.actuation_failures->Increment();
    RecordDecision(a, now, y, stale, gain, raw_u, kNaN,
                   obs::StepOutcome::kControllerError);
    return;
  }
  double amount = *u;
  if (a->state.share_upper_bound > 0.0) {
    amount = std::min(amount, a->state.share_upper_bound);
  }
  if (a->state.breaker_open && now < a->breaker_reopen_time) {
    // Open breaker: record what the loop wanted, touch nothing.
    a->state.counters.breaker_skipped_steps->Increment();
    RecordDecision(a, now, y, stale, gain, raw_u, amount,
                   obs::StepOutcome::kBreakerOpen);
    return;
  }
  bool applied = Actuate(a, amount, /*attempt=*/0);
  RecordDecision(a, now, y, stale, gain, raw_u, amount,
                 applied ? obs::StepOutcome::kActuated
                         : obs::StepOutcome::kActuationFailed);
}

void ElasticityManager::RecordDecision(Attached* a, SimTime now,
                                       double sensed_y, bool stale,
                                       double gain, double raw_u,
                                       double clamped_u,
                                       obs::StepOutcome outcome) {
  obs::DecisionLog& log = telemetry_->decisions();
  const std::string& layer = log.loops()[a->state.loop_id].layer;
  obs::ControlDecisionRecord rec;
  rec.time = now;
  rec.loop = a->state.loop_id;
  rec.sensed_y = sensed_y;
  rec.reference = a->config.controller->reference();
  rec.error = sensed_y - rec.reference;  // NaN on a sensor miss.
  rec.gain = gain;
  rec.raw_u = raw_u;
  rec.clamped_u = clamped_u;
  rec.stale_sensor = stale;
  rec.outcome = outcome;
  rec.span_id = a->current_decide_span;
  rec.fault_mask = telemetry_->FaultMaskAt(layer, now);
  if (health_annotator_) {
    rec.health_mask = health_annotator_(layer, now);
    if (rec.health_mask != 0) a->breach_steps->Increment();
  }
  log.Append(rec);
  if (flight_recorder_ != nullptr) flight_recorder_->RecordDecision(rec);
  // Close the decide span with what was ultimately applied (no-op for
  // sensor-miss steps, whose span was emitted closed).
  telemetry_->spans().End(a->current_decide_span, now, clamped_u,
                          static_cast<uint8_t>(outcome));

  if (!std::isnan(sensed_y)) a->gauge_y->Set(sensed_y);
  if (!std::isnan(clamped_u)) a->gauge_u->Set(clamped_u);
  if (!std::isnan(gain)) a->gauge_gain->Set(gain);
}

bool ElasticityManager::Actuate(Attached* a, double amount, int attempt) {
  const LayerControlConfig& cfg = a->config;
  Status st = cfg.actuator(amount);
  // Causal span: one kActuate per attempt, child of the decide span,
  // with retries chained to the previous attempt via follows-from.
  obs::SpanId attempt_span = telemetry_->spans().Emit(
      obs::SpanKind::kActuate, cfg.name, sim_->Now(), 0.0, trace_pid_,
      a->trace_tid, a->current_decide_span,
      attempt > 0 ? a->last_attempt_span : 0, amount,
      static_cast<uint8_t>(st.ok() ? obs::StepOutcome::kActuated
                                   : obs::StepOutcome::kActuationFailed));
  a->last_attempt_span = attempt_span;
  if (st.ok()) {
    a->consecutive_failures = 0;
    // A successful half-open probe closes the breaker.
    a->state.breaker_open = false;
    if (attempt > 0) a->state.counters.retry_successes->Increment();
    // The effect closes at the next fresh sense of this loop's metric.
    a->pending_effect_parent = attempt_span;
    a->pending_effect_start = sim_->Now();
    return true;
  }
  a->state.counters.actuation_failures->Increment();
  ++a->consecutive_failures;
  FLOWER_LOG(Warning) << "actuation failed for loop '" << cfg.name
                      << "' (attempt " << attempt + 1 << "): " << st;

  const CircuitBreakerPolicy& cb = cfg.resilience.breaker;
  if (cb.failure_threshold > 0 &&
      a->consecutive_failures >= cb.failure_threshold) {
    // Trip (or re-trip after a failed half-open probe): stop calling
    // the actuator until the cooldown elapses.
    a->state.breaker_open = true;
    a->breaker_reopen_time = sim_->Now() + cb.cooldown_sec;
    a->state.counters.breaker_trips->Increment();
    telemetry_->spans().Emit(obs::SpanKind::kBreaker, cfg.name, sim_->Now(),
                             cb.cooldown_sec, trace_pid_, a->trace_tid,
                             attempt_span, /*follows=*/0,
                             static_cast<double>(a->consecutive_failures));
    return false;
  }

  const RetryPolicy& rp = cfg.resilience.retry;
  if (attempt >= rp.max_retries) return false;
  double backoff = rp.initial_backoff_sec;
  for (int i = 0; i < attempt; ++i) backoff *= rp.backoff_multiplier;
  backoff = std::min(backoff, rp.max_backoff_sec);
  if (rp.jitter_fraction > 0.0) {
    backoff += backoff * rp.jitter_fraction * a->rng.Uniform(-1.0, 1.0);
  }
  backoff = std::max(backoff, 0.0);
  uint64_t epoch = a->epoch;
  (void)sim_->ScheduleAfter(backoff, [this, a, amount, attempt, epoch] {
    // Superseded by a newer step / pause / breaker trip: drop quietly.
    if (a->paused || epoch != a->epoch || a->state.breaker_open) return;
    a->state.counters.actuation_retries->Increment();
    Actuate(a, amount, attempt + 1);
  });
  return false;
}

Status ElasticityManager::EnableReplanning(ReplanConfig config) {
  if (replan_ != nullptr) {
    return Status::FailedPrecondition(
        "ElasticityManager: re-planning already enabled");
  }
  if (config.period_sec <= 0.0) {
    return Status::InvalidArgument(
        "ElasticityManager: re-plan period must be positive");
  }
  if (config.start_delay_sec < 0.0) {
    return Status::InvalidArgument(
        "ElasticityManager: negative re-plan start delay");
  }
  auto state = std::make_unique<ReplanState>();
  state->analyzer =
      ResourceShareAnalyzer(config.solver, config.incremental);
  obs::LabelSet planner_labels = WithTenant({});
  state->analyzer.SetMetricsRegistry(&telemetry_->metrics(), planner_labels);
  state->failures = telemetry_->metrics().GetCounter("planner.replan_failures",
                                                     planner_labels);
  state->front_size =
      telemetry_->metrics().GetGauge("planner.front_size", planner_labels);
  state->config = std::move(config);
  ReplanState* raw = state.get();
  FLOWER_RETURN_NOT_OK(sim_->SchedulePeriodic(
      sim_->Now() + state->config.start_delay_sec, state->config.period_sec,
      [this, raw] {
        ReplanStep(raw);
        return true;
      }));
  replan_ = std::move(state);
  return Status::OK();
}

void ElasticityManager::ReplanStep(ReplanState* s) {
  SimTime now = sim_->Now();
  if (s->config.update_request) {
    s->config.update_request(now, &s->config.request);
  }
  // Causal span: the kPlan span is ambient while the solver runs so the
  // NSGA-II observer can parent its kGeneration spans under it. It
  // follows from the previous successful plan (the one whose bounds the
  // new pass refines).
  obs::SpanCollector& spans = telemetry_->spans();
  obs::SpanId plan_span =
      spans.Begin(obs::SpanKind::kPlan, "replan", now, trace_pid_,
                  obs::kPlannerTid, /*parent=*/0, /*follows=*/last_plan_span_);
  telemetry_->set_active_plan_span(plan_span);
  Result<ResourceShareResult> res =
      s->analyzer.AnalyzeIncremental(s->config.request);
  telemetry_->set_active_plan_span(0);
  if (!res.ok()) {
    // Keep the previous bounds; a transiently unsolvable request must
    // not strip the loops of their caps. last_plan_span_ also stays on
    // the previous success: the old plan remains the cause of the
    // bounds the loops keep running under.
    spans.End(plan_span, sim_->Now(), 0.0, /*outcome=*/1);
    s->failures->Increment();
    return;
  }
  spans.End(plan_span, sim_->Now(),
            static_cast<double>(res->pareto_plans.size()));
  if (plan_span != 0) last_plan_span_ = plan_span;
  s->front_size->Set(static_cast<double>(res->pareto_plans.size()));
  Result<ProvisioningPlan> max_shares =
      ResourceShareAnalyzer::MaxShares(*res);
  if (max_shares.ok()) {
    for (int i = 0; i < kNumLayers; ++i) {
      Layer layer = static_cast<Layer>(i);
      if (!IsAttached(layer)) continue;
      (void)SetShareUpperBound(layer, max_shares->shares[i]);
    }
  }
  if (flight_recorder_ != nullptr) {
    flight_recorder_->RecordReplan(
        now, s->config.request.hourly_budget_usd,
        max_shares.ok() ? max_shares->shares : nullptr,
        max_shares.ok() ? kNumLayers : 0, max_shares.ok());
  }
}

Result<PlannerCounters> ElasticityManager::ReplanCounters() const {
  if (replan_ == nullptr) {
    return Status::NotFound("ElasticityManager: re-planning not enabled");
  }
  return replan_->analyzer.counters();
}

Status ElasticityManager::SetShareUpperBound(const std::string& name,
                                             double bound) {
  auto it = loops_.find(name);
  if (it == loops_.end()) {
    return Status::NotFound("ElasticityManager: loop '" + name +
                            "' not attached");
  }
  if (bound < 0.0) {
    return Status::InvalidArgument(
        "ElasticityManager: negative share upper bound");
  }
  it->second->state.share_upper_bound = bound;
  return Status::OK();
}

Status ElasticityManager::SetPaused(const std::string& name, bool paused) {
  auto it = loops_.find(name);
  if (it == loops_.end()) {
    return Status::NotFound("ElasticityManager: loop '" + name +
                            "' not attached");
  }
  it->second->paused = paused;
  return Status::OK();
}

Result<const LayerControlState*> ElasticityManager::GetState(
    const std::string& name) const {
  auto it = loops_.find(name);
  if (it == loops_.end()) {
    return Status::NotFound("ElasticityManager: loop '" + name +
                            "' not attached");
  }
  return &it->second->state;
}

Result<const control::Controller*> ElasticityManager::GetController(
    const std::string& name) const {
  auto it = loops_.find(name);
  if (it == loops_.end()) {
    return Status::NotFound("ElasticityManager: loop '" + name +
                            "' not attached");
  }
  return it->second->config.controller.get();
}

std::vector<std::string> ElasticityManager::LoopNames() const {
  std::vector<std::string> names;
  names.reserve(loops_.size());
  for (const auto& [name, attached] : loops_) names.push_back(name);
  return names;
}

}  // namespace flower::core
