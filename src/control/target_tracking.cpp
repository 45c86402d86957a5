#include "control/target_tracking.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flower::control {

TargetTrackingController::TargetTrackingController(
    TargetTrackingConfig config)
    : config_(config), u_(config.limits.Clamp(config.limits.min)) {}

void TargetTrackingController::Reset(double initial_u) {
  u_ = config_.limits.Clamp(initial_u);
  last_scale_time_ = -1e18;
  last_time_ = -1.0;
}

Result<double> TargetTrackingController::Update(SimTime now, double y) {
  if (now < last_time_) {
    return Status::InvalidArgument(
        "TargetTrackingController: time moved backwards");
  }
  if (now == last_time_) {
    // Duplicate control tick: idempotent no-op (a repeat at one instant
    // must not re-enter the cooldown bookkeeping).
    return config_.limits.Quantize(u_);
  }
  last_time_ = now;
  if (config_.reference <= 0.0) {
    return Status::FailedPrecondition(
        "TargetTrackingController: non-positive reference");
  }
  double desired = u_ * (y / config_.reference);
  double since = now - last_scale_time_;
  bool never_scaled = last_scale_time_ < -1e17;
  if (desired > u_) {
    if (never_scaled || since >= config_.scale_out_cooldown) {
      u_ = config_.limits.Clamp(desired);
      last_scale_time_ = now;
    }
  } else if (config_.scale_in_enabled &&
             desired < config_.scale_in_margin * u_) {
    if (never_scaled || since >= config_.scale_in_cooldown) {
      u_ = config_.limits.Clamp(desired);
      last_scale_time_ = now;
    }
  }
  double out = config_.limits.Quantize(u_);
  // Ratio law has no explicit gain; raw_u is the pre-cooldown desire.
  RecordStep(std::numeric_limits<double>::quiet_NaN(), desired);
  return out;
}

}  // namespace flower::control
