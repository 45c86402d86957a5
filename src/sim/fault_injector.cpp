#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace flower::sim {

std::string FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kActuatorFailure: return "actuator-failure";
    case FaultKind::kActuatorThrottle: return "actuator-throttle";
    case FaultKind::kMetricGap: return "metric-gap";
    case FaultKind::kMetricDelay: return "metric-delay";
    case FaultKind::kSensorSpike: return "sensor-spike";
  }
  return "unknown";
}

Result<int> FaultInjector::Add(FaultSpec spec) {
  // Each check holds only for numbers, so a NaN field fails it.
  if (!std::isfinite(spec.start)) {
    return Status::InvalidArgument("FaultInjector: start must be finite");
  }
  if (!(spec.end > spec.start)) {
    return Status::InvalidArgument("FaultInjector: end must exceed start");
  }
  if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
    return Status::InvalidArgument(
        "FaultInjector: probability must be in [0, 1]");
  }
  if (!(std::isfinite(spec.delay_sec) && spec.delay_sec >= 0.0)) {
    return Status::InvalidArgument(
        "FaultInjector: delay must be finite and >= 0");
  }
  if (!(std::isfinite(spec.factor) && std::isfinite(spec.offset))) {
    return Status::InvalidArgument(
        "FaultInjector: spike factor and offset must be finite");
  }
  int id = next_id_++;
  faults_.push_back(Registered{id, false, std::move(spec)});
  return id;
}

namespace {
FaultSpec MakeSpec(FaultKind kind, const std::string& target, SimTime start,
                   SimTime end, double probability) {
  FaultSpec spec;
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
  return *Add(MakeSpec(FaultKind::kActuatorFailure, target, start, end,
                       probability));
}

int FaultInjector::ThrottleActuator(const std::string& target, SimTime start,
                                    SimTime end, double probability) {
  return *Add(MakeSpec(FaultKind::kActuatorThrottle, target, start, end,
                       probability));
}

int FaultInjector::DropMetrics(const std::string& target, SimTime start,
                               SimTime end, double probability) {
  return *Add(
      MakeSpec(FaultKind::kMetricGap, target, start, end, probability));
}

int FaultInjector::DelayMetrics(const std::string& target, SimTime start,
                                SimTime end, double delay_sec) {
  FaultSpec spec = MakeSpec(FaultKind::kMetricDelay, target, start, end, 1.0);
  spec.delay_sec = delay_sec;
  return *Add(std::move(spec));
}

int FaultInjector::SpikeSensor(const std::string& target, SimTime start,
                               SimTime end, double factor, double offset,
                               double probability) {
  FaultSpec spec =
      MakeSpec(FaultKind::kSensorSpike, target, start, end, probability);
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

std::vector<FaultSpec> FaultInjector::Schedule() const {
  std::vector<FaultSpec> out;
  out.reserve(faults_.size());
  for (const Registered& r : faults_) {
    if (!r.cleared) out.push_back(r.spec);
  }
  return out;
}

double FaultInjector::MaxDelaySec(const std::string& target) const {
  double longest = 0.0;
  for (const Registered& r : faults_) {
    if (r.cleared || r.spec.kind != FaultKind::kMetricDelay) continue;
    if (!r.spec.target.empty() && r.spec.target != target) continue;
    longest = std::max(longest, r.spec.delay_sec);
  }
  return longest;
}

bool FaultInjector::Active(FaultKind kind, const std::string& target,
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

void FaultInjector::Note(FaultKind kind, const std::string& target) {
  if (telemetry_ == nullptr) return;
  SimTime now = sim_->Now();
  telemetry_->metrics()
      .GetCounter("fault.injected", {{"kind", FaultKindToString(kind)},
                                     {"target", target}})
      ->Increment();
  obs::SpanCollector& spans = telemetry_->spans();
  if (spans.enabled()) {
    spans.Emit(obs::SpanKind::kFault, FaultKindToString(kind) + ":" + target,
               now, 0.0, obs::kTracePid, obs::kFaultInjectorTid);
  }
  telemetry_->NoteFault(
      target, static_cast<obs::FaultMask>(1u << static_cast<int>(kind)),
      now);
}

const FaultSpec* FaultInjector::Draw(FaultKind kind,
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
    if (Draw(FaultKind::kActuatorFailure, target) != nullptr) {
      ++stats_.actuator_failures;
      Note(FaultKind::kActuatorFailure, target);
      return Status::Internal("fault injection: actuation failed for '" +
                              target + "'");
    }
    if (Draw(FaultKind::kActuatorThrottle, target) != nullptr) {
      ++stats_.actuator_throttles;
      Note(FaultKind::kActuatorThrottle, target);
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
    if (const FaultSpec* delay = Draw(FaultKind::kMetricDelay, target)) {
      query_time = now - delay->delay_sec;
      ++stats_.delayed_reads;
      Note(FaultKind::kMetricDelay, target);
    }
    if (Draw(FaultKind::kMetricGap, target) != nullptr) {
      ++stats_.metric_gaps;
      Note(FaultKind::kMetricGap, target);
      return Status::NotFound("fault injection: metric gap for '" + target +
                              "'");
    }
    Result<double> value = inner(query_time);
    if (!value.ok()) return value;
    if (const FaultSpec* spike = Draw(FaultKind::kSensorSpike, target)) {
      ++stats_.sensor_spikes;
      Note(FaultKind::kSensorSpike, target);
      return *value * spike->factor + spike->offset;
    }
    return value;
  };
}

}  // namespace flower::sim
