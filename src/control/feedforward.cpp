#include "control/feedforward.h"

#include <algorithm>
#include <cmath>

namespace flower::control {

FeedforwardController::FeedforwardController(FeedforwardConfig config,
                                             DriverFn driver)
    : config_(config), driver_(std::move(driver)),
      u_(config.limits.Clamp(config.limits.min)) {}

void FeedforwardController::ResetLaw(double initial_u) {
  u_ = config_.limits.Clamp(initial_u);
  trim_ = 0.0;
  a_ = 0.0;
  b_ = 0.0;
  p_[0][0] = 1e6;
  p_[0][1] = 0.0;
  p_[1][0] = 0.0;
  p_[1][1] = 1e6;
  observations_ = 0;
  driver_misses_ = 0;
}

void FeedforwardController::RlsUpdate(double x, double w) {
  // Regressor phi = [1, x]; model w = a + b*x.
  double phi0 = 1.0, phi1 = x;
  double lambda = config_.forgetting;
  // P * phi
  double pp0 = p_[0][0] * phi0 + p_[0][1] * phi1;
  double pp1 = p_[1][0] * phi0 + p_[1][1] * phi1;
  double denom = lambda + phi0 * pp0 + phi1 * pp1;
  if (denom <= 1e-12) return;
  double k0 = pp0 / denom, k1 = pp1 / denom;
  double err = w - (a_ * phi0 + b_ * phi1);
  a_ += k0 * err;
  b_ += k1 * err;
  // P = (P - k * phi' * P) / lambda.
  double p00 = (p_[0][0] - k0 * pp0) / lambda;
  double p01 = (p_[0][1] - k0 * pp1) / lambda;
  double p10 = (p_[1][0] - k1 * pp0) / lambda;
  double p11 = (p_[1][1] - k1 * pp1) / lambda;
  p_[0][0] = std::min(p00, 1e9);
  p_[0][1] = std::min(p01, 1e9);
  p_[1][0] = std::min(p10, 1e9);
  p_[1][1] = std::min(p11, 1e9);
  ++observations_;
}

Result<double> FeedforwardController::Step(SimTime now, double y) {
  Result<double> x = driver_ ? driver_(now)
                             : Result<double>(Status::FailedPrecondition(
                                   "no driver configured"));
  if (!x.ok()) {
    // Degraded mode: pure integral feedback on the measurement.
    ++driver_misses_;
    double raw_u = u_ + config_.trim_gain * (y - config_.reference);
    u_ = config_.limits.Clamp(raw_u);
    double out = config_.limits.Quantize(u_);
    RecordStep(config_.trim_gain, raw_u);
    return out;
  }

  // Learn the workload model from the *applied* capacity and measured
  // utilization. A saturated sample (y pinned at 100) only lower-bounds
  // the demand, so it would bias the model down — but if the model
  // predicts even less than that bound it is certainly wrong, and
  // refusing to learn would deadlock the loop: stale-low model, trim
  // clamped to a fraction of it, y stuck at 100 forever. Learn from the
  // bound in that case so saturation always resolves.
  double applied = config_.limits.Quantize(u_);
  if (y < 99.0 || a_ + b_ * (*x) < y * applied) {
    RlsUpdate(*x, y * applied);
  }

  if (observations_ < 3) {
    // Model still cold: feedback only.
    double raw_u = u_ + config_.trim_gain * (y - config_.reference);
    u_ = config_.limits.Clamp(raw_u);
    double out = config_.limits.Quantize(u_);
    RecordStep(config_.trim_gain, raw_u);
    return out;
  }

  // Feedforward term: capacity that puts the predicted demand at the
  // reference utilization.
  double predicted_w = std::max(0.0, a_ + b_ * (*x));
  double u_ff = predicted_w / config_.reference;

  // Feedback trim absorbs residual model bias.
  trim_ += config_.trim_gain * (y - config_.reference);
  double max_trim = config_.max_trim_fraction * std::max(u_ff, 1.0);
  trim_ = std::clamp(trim_, -max_trim, max_trim);

  double raw_u = u_ff + trim_;
  u_ = config_.limits.Clamp(raw_u);
  double out = config_.limits.Quantize(u_);
  RecordStep(config_.trim_gain, raw_u);
  return out;
}

}  // namespace flower::control
