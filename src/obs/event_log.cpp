#include "obs/event_log.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace flower::obs {

const char* StepOutcomeToString(StepOutcome outcome) {
  switch (outcome) {
    case StepOutcome::kActuated: return "actuated";
    case StepOutcome::kSensorMiss: return "sensor-miss";
    case StepOutcome::kControllerError: return "controller-error";
    case StepOutcome::kBreakerOpen: return "breaker-open";
    case StepOutcome::kActuationFailed: return "actuation-failed";
  }
  return "unknown";
}

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kActuatorFailure: return "actuator-failure";
    case FaultKind::kActuatorThrottle: return "actuator-throttle";
    case FaultKind::kMetricGap: return "metric-gap";
    case FaultKind::kMetricDelay: return "metric-delay";
    case FaultKind::kSensorSpike: return "sensor-spike";
  }
  return "unknown";
}

Result<FaultKind> ParseFaultKind(const std::string& name) {
  for (FaultKind kind :
       {FaultKind::kActuatorFailure, FaultKind::kActuatorThrottle,
        FaultKind::kMetricGap, FaultKind::kMetricDelay,
        FaultKind::kSensorSpike}) {
    if (name == FaultKindToString(kind)) return kind;
  }
  std::string message = "unknown fault kind '";
  return Status::InvalidArgument(message.append(name).append("'"));
}

Result<LoopId> LoopTable::Register(LoopInfo info) {
  if (loops_.size() > std::numeric_limits<LoopId>::max()) {
    return Status::ResourceExhausted("LoopTable: every loop id is taken");
  }
  loops_.push_back(std::move(info));
  return static_cast<LoopId>(loops_.size() - 1);
}

size_t FormatDigestLine(const ControlDecisionRecord& record,
                        const std::string& loop,
                        char (&buf)[kDigestLineCapacity]) {
  int n = std::snprintf(buf, kDigestLineCapacity,
                        "t=%.3f loop=%s y=%.6f raw_u=%.6f u=%.6f out=%s",
                        record.time, loop.c_str(), record.sensed_y,
                        record.raw_u, record.clamped_u,
                        StepOutcomeToString(record.outcome));
  if (n < 0) return 0;
  return std::min(static_cast<size_t>(n), kDigestLineCapacity - 1);
}

DecisionLog::DecisionLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 1024));
}

void DecisionLog::Append(const ControlDecisionRecord& record) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
    return;
  }
  ring_[head_] = record;
  head_ = (head_ + 1) % capacity_;
}

}  // namespace flower::obs
