#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace flower::sim {

Status ValidateFault(const obs::FaultSpec& spec) {
  // Each check holds only for numbers, so a NaN field fails it.
  const std::pair<bool, const char*> rules[] = {
      {std::isfinite(spec.start), "start must be finite"},
      {spec.end > spec.start, "end must exceed start"},
      {spec.probability >= 0.0 && spec.probability <= 1.0,
       "probability must be in [0, 1]"},
      {std::isfinite(spec.delay_sec) && spec.delay_sec >= 0.0,
       "delay_sec must be finite and >= 0"},
      {std::isfinite(spec.factor) && std::isfinite(spec.offset),
       "factor and offset must be finite"},
  };
  for (const auto& [ok, what] : rules) {
    if (!ok) {
      std::string message = obs::FaultKindToString(spec.kind);
      return Status::InvalidArgument(message.append(" fault: ").append(what));
    }
  }
  return Status::OK();
}

Result<int> FaultInjector::Add(obs::FaultSpec spec) {
  FLOWER_RETURN_NOT_OK(ValidateFault(spec));
  int id = next_id_++;
  faults_.push_back(Registered{id, false, std::move(spec)});
  return id;
}

namespace {
obs::FaultSpec MakeSpec(obs::FaultKind kind, const std::string& target,
                        SimTime start, SimTime end, double probability) {
  obs::FaultSpec spec;
  spec.kind = kind;
  spec.target = target;
  spec.start = start;
  spec.end = end;
  spec.probability = probability;
  return spec;
}
}  // namespace

int FaultInjector::FailActuator(const std::string& target, SimTime start,
                                SimTime end, double probability) {
  return *Add(MakeSpec(obs::FaultKind::kActuatorFailure, target, start, end,
                       probability));
}

int FaultInjector::ThrottleActuator(const std::string& target, SimTime start,
                                    SimTime end, double probability) {
  return *Add(MakeSpec(obs::FaultKind::kActuatorThrottle, target, start, end,
                       probability));
}

int FaultInjector::DropMetrics(const std::string& target, SimTime start,
                               SimTime end, double probability) {
  return *Add(
      MakeSpec(obs::FaultKind::kMetricGap, target, start, end, probability));
}

int FaultInjector::DelayMetrics(const std::string& target, SimTime start,
                                SimTime end, double delay_sec) {
  obs::FaultSpec spec =
      MakeSpec(obs::FaultKind::kMetricDelay, target, start, end, 1.0);
  spec.delay_sec = delay_sec;
  return *Add(std::move(spec));
}

int FaultInjector::SpikeSensor(const std::string& target, SimTime start,
                               SimTime end, double factor, double offset,
                               double probability) {
  obs::FaultSpec spec = MakeSpec(obs::FaultKind::kSensorSpike, target, start,
                                 end, probability);
  spec.factor = factor;
  spec.offset = offset;
  return *Add(std::move(spec));
}

void FaultInjector::Clear(int id) {
  for (Registered& r : faults_) {
    if (r.id == id) r.cleared = true;
  }
}

void FaultInjector::ClearAll() {
  for (Registered& r : faults_) r.cleared = true;
}

size_t FaultInjector::fault_count() const {
  size_t n = 0;
  for (const Registered& r : faults_) {
    if (!r.cleared) ++n;
  }
  return n;
}

double FaultInjector::MaxDelaySec(const std::string& target) const {
  double longest = 0.0;
  for (const Registered& r : faults_) {
    if (r.cleared || r.spec.kind != obs::FaultKind::kMetricDelay) continue;
    if (!r.spec.target.empty() && r.spec.target != target) continue;
    longest = std::max(longest, r.spec.delay_sec);
  }
  return longest;
}

bool FaultInjector::Active(obs::FaultKind kind, const std::string& target,
                           SimTime t) const {
  for (const Registered& r : faults_) {
    if (r.cleared || r.spec.kind != kind) continue;
    if (!r.spec.target.empty() && r.spec.target != target) continue;
    if (t >= r.spec.start && t < r.spec.end) return true;
  }
  return false;
}

void FaultInjector::SetTelemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ != nullptr) {
    telemetry_->spans().SetTrackName(obs::kTracePid, obs::kFaultInjectorTid,
                                     "fault-injector");
  }
}

void FaultInjector::Note(obs::FaultKind kind, const std::string& target) {
  if (telemetry_ == nullptr) return;
  SimTime now = sim_->Now();
  telemetry_->metrics()
      .GetCounter("fault.injected",
                  {{"kind", obs::FaultKindToString(kind)}, {"target", target}})
      ->Increment();
  obs::SpanCollector& spans = telemetry_->spans();
  if (spans.enabled()) {
    std::string name = obs::FaultKindToString(kind);
    spans.Emit(obs::SpanKind::kFault, name.append(":").append(target), now,
               0.0, obs::kTracePid, obs::kFaultInjectorTid);
  }
  telemetry_->NoteFault(
      target, static_cast<obs::FaultMask>(1u << static_cast<int>(kind)),
      now);
}

const obs::FaultSpec* FaultInjector::Draw(obs::FaultKind kind,
                                          const std::string& target) {
  SimTime now = sim_->Now();
  for (Registered& r : faults_) {
    if (r.cleared || r.spec.kind != kind) continue;
    if (!r.spec.target.empty() && r.spec.target != target) continue;
    if (now < r.spec.start || now >= r.spec.end) continue;
    if (r.spec.probability >= 1.0 || rng_.Bernoulli(r.spec.probability)) {
      return &r.spec;
    }
  }
  return nullptr;
}

std::function<Status(double)> FaultInjector::WrapActuator(
    std::string target, std::function<Status(double)> inner) {
  return [this, target = std::move(target),
          inner = std::move(inner)](double amount) -> Status {
    if (Draw(obs::FaultKind::kActuatorFailure, target) != nullptr) {
      ++stats_.actuator_failures;
      Note(obs::FaultKind::kActuatorFailure, target);
      return Status::Internal("fault injection: actuation failed for '" +
                              target + "'");
    }
    if (Draw(obs::FaultKind::kActuatorThrottle, target) != nullptr) {
      ++stats_.actuator_throttles;
      Note(obs::FaultKind::kActuatorThrottle, target);
      return Status::Throttled("fault injection: actuation throttled for '" +
                               target + "'");
    }
    return inner(amount);
  };
}

std::function<Result<double>(SimTime)> FaultInjector::WrapSensor(
    std::string target, std::function<Result<double>(SimTime)> inner) {
  return [this, target = std::move(target),
          inner = std::move(inner)](SimTime now) -> Result<double> {
    // Delay first: the read observes the store as of `now - delay`.
    SimTime query_time = now;
    if (const obs::FaultSpec* delay =
            Draw(obs::FaultKind::kMetricDelay, target)) {
      query_time = now - delay->delay_sec;
      ++stats_.delayed_reads;
      Note(obs::FaultKind::kMetricDelay, target);
    }
    if (Draw(obs::FaultKind::kMetricGap, target) != nullptr) {
      ++stats_.metric_gaps;
      Note(obs::FaultKind::kMetricGap, target);
      return Status::NotFound("fault injection: metric gap for '" + target +
                              "'");
    }
    Result<double> value = inner(query_time);
    if (!value.ok()) return value;
    if (const obs::FaultSpec* spike =
            Draw(obs::FaultKind::kSensorSpike, target)) {
      ++stats_.sensor_spikes;
      Note(obs::FaultKind::kSensorSpike, target);
      return *value * spike->factor + spike->offset;
    }
    return value;
  };
}

}  // namespace flower::sim
