#include "control/adaptive_gain.h"

#include <algorithm>

namespace flower::control {

AdaptiveGainController::AdaptiveGainController(AdaptiveGainConfig config)
    : config_(config),
      u_(config.limits.Clamp(config.limits.min)),
      gain_(config.initial_gain) {}

void AdaptiveGainController::Reset(double initial_u) {
  u_ = config_.limits.Clamp(initial_u);
  gain_ = config_.initial_gain;
  last_time_ = -1.0;
}

Result<double> AdaptiveGainController::Update(SimTime now, double y) {
  if (now < last_time_) {
    return Status::InvalidArgument(
        "AdaptiveGainController: time moved backwards");
  }
  if (now == last_time_) {
    // Duplicate control tick: re-applying Eq. 6–7 at one timestamp would
    // double-count the gain and integral action, so repeat the output.
    return config_.limits.Quantize(u_);
  }
  last_time_ = now;
  double error = y - config_.reference;
  if (config_.reset_gain_each_step) {
    gain_ = config_.initial_gain;
  }
  // Eq. 7: multi-stage gain update with memory, clamped for stability.
  gain_ = std::clamp(gain_ + config_.gamma * error, config_.gain_min,
                     config_.gain_max);
  // Eq. 6: integral action with the adapted gain. The integrator state
  // stays continuous; only the returned actuation is quantized.
  double raw_u = u_ + gain_ * error;
  u_ = config_.limits.Clamp(raw_u);
  double out = config_.limits.Quantize(u_);
  RecordStep(gain_, raw_u);
  return out;
}

}  // namespace flower::control
