#include "control/quasi_adaptive.h"

#include <algorithm>
#include <cmath>

namespace flower::control {

QuasiAdaptiveController::QuasiAdaptiveController(QuasiAdaptiveConfig config)
    : config_(config),
      u_(config.limits.Clamp(config.limits.min)),
      b_hat_(config.initial_sensitivity) {}

void QuasiAdaptiveController::ResetLaw(double initial_u) {
  u_ = config_.limits.Clamp(initial_u);
  b_hat_ = config_.initial_sensitivity;
  p_ = 1.0;
  have_prev_ = false;
  prev_u_ = config_.limits.Quantize(u_);
  prev_prev_u_ = prev_u_;
}

Result<double> QuasiAdaptiveController::Step(SimTime /*now*/, double y) {
  // Online model estimation: RLS over (Δu, Δy) with forgetting. The
  // measurement y_k responds to the actuation applied after the
  // previous step, so the regressor pairs Δy_k = y_k − y_{k-1} with
  // Δu = u_{k-1} − u_{k-2} (both quantized: what the plant saw).
  if (have_prev_) {
    double du = prev_u_ - prev_prev_u_;
    double dy = y - prev_y_;
    if (std::fabs(du) > 1e-9) {
      double denom = config_.forgetting + du * p_ * du;
      double k_gain = p_ * du / denom;
      b_hat_ += k_gain * (dy - b_hat_ * du);
      p_ = (p_ - k_gain * du * p_) / config_.forgetting;
      p_ = std::min(p_, 1e6);
    }
  }
  // Keep the magnitude bounded and the sign physically meaningful
  // (capacity up => utilization down).
  double mag = std::clamp(std::fabs(b_hat_), config_.sensitivity_min,
                          config_.sensitivity_max);
  b_hat_ = -mag;  // Enforce negative sensitivity.

  prev_y_ = y;
  have_prev_ = true;

  double gain = config_.lambda / mag;
  double error = y - config_.reference;
  // Continuous integrator; only the returned actuation is quantized.
  prev_prev_u_ = prev_u_;
  double raw_u = u_ + gain * error;
  u_ = config_.limits.Clamp(raw_u);
  prev_u_ = config_.limits.Quantize(u_);
  RecordStep(gain, raw_u);
  return prev_u_;
}

}  // namespace flower::control
