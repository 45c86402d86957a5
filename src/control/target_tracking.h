#ifndef FLOWER_CONTROL_TARGET_TRACKING_H_
#define FLOWER_CONTROL_TARGET_TRACKING_H_

#include "control/controller.h"

namespace flower::control {

/// Configuration of the target-tracking baseline, modelled on the
/// native autoscaling law cloud providers attach to Kinesis/DynamoDB:
/// keep the metric at a target by scaling *proportionally to the
/// ratio* between measured and target value.
struct TargetTrackingConfig {
  double reference = 60.0;  ///< Target metric value (e.g. 60%).
  /// Scale-out is blocked for this long after any scaling action.
  double scale_out_cooldown = 60.0;
  /// Scale-in is more conservative: longer cooldown plus a margin.
  double scale_in_cooldown = 600.0;
  /// Scale in only when the desired capacity is below the current one
  /// by at least this factor (hysteresis against flapping).
  double scale_in_margin = 0.9;
  bool scale_in_enabled = true;
  ActuatorLimits limits;
};

/// Ratio-based target tracking:
///
///   desired = u_k * (y_k / y_r)
///   scale out immediately (post-cooldown) when desired > u_k,
///   scale in conservatively when desired < margin * u_k.
///
/// Unlike the integral controllers this jumps straight to the
/// steady-state capacity implied by the current measurement — fast on
/// clean signals, but it trusts a single (possibly noisy or saturated)
/// measurement: when the sensor clips at 100% the implied capacity is
/// an underestimate, so repeated rounds are needed for large surges.
class TargetTrackingController final : public Controller {
 public:
  explicit TargetTrackingController(TargetTrackingConfig config);

  std::string name() const override { return "target-tracking"; }
  double current_u() const override { return config_.limits.Quantize(u_); }
  double reference() const override { return config_.reference; }
  void set_reference(double y_r) override { config_.reference = y_r; }

  const TargetTrackingConfig& config() const { return config_; }

 private:
  Result<double> Step(SimTime now, double y) override;
  void ResetLaw(double initial_u) override;

  TargetTrackingConfig config_;
  double u_;
  SimTime last_scale_time_ = -1e18;
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_TARGET_TRACKING_H_
