#include "control/rule_based.h"

#include <limits>

namespace flower::control {

RuleBasedController::RuleBasedController(RuleBasedConfig config)
    : config_(config), u_(config.limits.Quantize(config.limits.min)) {}

void RuleBasedController::ResetLaw(double initial_u) {
  u_ = config_.limits.Quantize(initial_u);
  high_breaches_ = 0;
  low_breaches_ = 0;
  last_action_time_ = -1e18;
}

void RuleBasedController::set_reference(double y_r) {
  // Preserve the current band width around the new midpoint.
  double half = 0.5 * (config_.high_threshold - config_.low_threshold);
  config_.high_threshold = y_r + half;
  config_.low_threshold = y_r - half;
}

Result<double> RuleBasedController::Step(SimTime now, double y) {
  if (y > config_.high_threshold) {
    ++high_breaches_;
    low_breaches_ = 0;
  } else if (y < config_.low_threshold) {
    ++low_breaches_;
    high_breaches_ = 0;
  } else {
    high_breaches_ = 0;
    low_breaches_ = 0;
  }

  double since_action = now - last_action_time_;
  if (high_breaches_ >= config_.breach_periods &&
      (since_action >= config_.up_cooldown ||
       // First-ever action is never blocked by cooldown.
       last_action_time_ < -1e17)) {
    u_ = config_.limits.Quantize(u_ + config_.up_step);
    last_action_time_ = now;
    high_breaches_ = 0;
  } else if (low_breaches_ >= config_.breach_periods &&
             (since_action >= config_.down_cooldown ||
              last_action_time_ < -1e17)) {
    u_ = config_.limits.Quantize(u_ - config_.down_step);
    last_action_time_ = now;
    low_breaches_ = 0;
  }
  // No explicit gain in a threshold rule — published as NaN.
  RecordStep(std::numeric_limits<double>::quiet_NaN(), u_);
  return u_;
}

}  // namespace flower::control
