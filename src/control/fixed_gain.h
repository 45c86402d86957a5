#ifndef FLOWER_CONTROL_FIXED_GAIN_H_
#define FLOWER_CONTROL_FIXED_GAIN_H_

#include "control/controller.h"

namespace flower::control {

/// Configuration of the fixed-gain baseline (Lim, Babu & Chase,
/// ICAC 2010 — the paper's reference [12]).
struct FixedGainConfig {
  double reference = 60.0;  ///< High target y_h (top of the target range).
  double gain = 0.05;       ///< Fixed integral gain K_i.
  /// Proportional-thresholding range width parameter: the low target is
  /// y_l = y_h − range_width / u_k, so the dead zone widens when few
  /// resource units are allocated (avoiding oscillation at small
  /// cluster sizes) and narrows as the cluster grows.
  double range_width = 40.0;
  /// Lower bound on the dead-zone width (y_h − y_l).
  double min_range = 2.0;
  ActuatorLimits limits;
};

/// Integral controller with a *fixed* gain and proportional
/// thresholding:
///
///   if y_k > y_h:            u_{k+1} = u_k + K_i (y_k − y_h)
///   if y_k < y_l(u_k):       u_{k+1} = u_k + K_i (y_k − y_l)
///   otherwise:               u_{k+1} = u_k      (inside target range)
///
/// Unlike Flower's adaptive controller the gain never changes, so the
/// controller reacts slowly to large sustained load changes (or
/// oscillates if the gain is tuned aggressively) — this is the
/// behaviour the paper's §3.3 comparison claim targets.
class FixedGainController final : public Controller {
 public:
  explicit FixedGainController(FixedGainConfig config);

  std::string name() const override { return "fixed-gain"; }
  double current_u() const override { return config_.limits.Quantize(u_); }
  double reference() const override { return config_.reference; }
  void set_reference(double y_r) override { config_.reference = y_r; }

  /// Current low threshold y_l(u_k) of the target range.
  double low_target() const;
  const FixedGainConfig& config() const { return config_; }

 private:
  Result<double> Step(SimTime now, double y) override;
  void ResetLaw(double initial_u) override;

  FixedGainConfig config_;
  double u_;
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_FIXED_GAIN_H_
