#include "control/fixed_gain.h"

#include <algorithm>

namespace flower::control {

FixedGainController::FixedGainController(FixedGainConfig config)
    : config_(config), u_(config.limits.Clamp(config.limits.min)) {}

void FixedGainController::ResetLaw(double initial_u) {
  u_ = config_.limits.Clamp(initial_u);
}

double FixedGainController::low_target() const {
  double width = config_.range_width / std::max(u_, 1.0);
  width = std::max(width, config_.min_range);
  return config_.reference - width;
}

Result<double> FixedGainController::Step(SimTime /*now*/, double y) {
  double y_h = config_.reference;
  double y_l = low_target();
  double error = 0.0;
  if (y > y_h) {
    error = y - y_h;
  } else if (y < y_l) {
    error = y - y_l;
  } else {
    // Inside the target range: proportional thresholding holds steady.
    double out = config_.limits.Quantize(u_);
    RecordStep(config_.gain, u_);
    return out;
  }
  // Continuous integrator; only the returned actuation is quantized.
  double raw_u = u_ + config_.gain * error;
  u_ = config_.limits.Clamp(raw_u);
  double out = config_.limits.Quantize(u_);
  RecordStep(config_.gain, raw_u);
  return out;
}

}  // namespace flower::control
