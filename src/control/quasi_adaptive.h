#ifndef FLOWER_CONTROL_QUASI_ADAPTIVE_H_
#define FLOWER_CONTROL_QUASI_ADAPTIVE_H_

#include "control/controller.h"

namespace flower::control {

/// Configuration of the quasi-adaptive baseline (Padala et al.,
/// "Adaptive control of virtualized resources", EuroSys 2007 — the
/// paper's reference [14]).
struct QuasiAdaptiveConfig {
  double reference = 60.0;
  /// Closed-loop aggressiveness λ: the effective integral gain is
  /// λ / |b̂| where b̂ is the estimated plant sensitivity ∂y/∂u.
  double lambda = 0.3;
  /// Initial sensitivity estimate (per actuator unit). For a
  /// utilization plant b is negative: adding capacity lowers
  /// utilization.
  double initial_sensitivity = -5.0;
  /// |b̂| is kept in [sensitivity_min, sensitivity_max] to bound the
  /// effective gain.
  double sensitivity_min = 0.2;
  double sensitivity_max = 100.0;
  /// RLS forgetting factor in (0, 1]; smaller forgets faster.
  double forgetting = 0.95;
  ActuatorLimits limits;
};

/// Self-tuning integral controller with online model estimation:
///
///   model:      Δy_k = b · Δu_{k-1} + e_k   (b estimated by RLS with
///                                            exponential forgetting)
///   control:    u_{k+1} = u_k + (λ / |b̂_k|) (y_k − y_r)
///
/// The gain is recomputed from scratch off the *current* model estimate
/// each step — it adapts to the plant but, unlike Flower's controller,
/// carries no memory of its own past control decisions, which is why
/// the Flower paper labels this family "quasi-adaptive".
class QuasiAdaptiveController final : public Controller {
 public:
  explicit QuasiAdaptiveController(QuasiAdaptiveConfig config);

  std::string name() const override { return "quasi-adaptive"; }
  double current_u() const override { return config_.limits.Quantize(u_); }
  double reference() const override { return config_.reference; }
  void set_reference(double y_r) override { config_.reference = y_r; }

  /// Current sensitivity estimate b̂ (for monitoring/tests).
  double estimated_sensitivity() const { return b_hat_; }
  const QuasiAdaptiveConfig& config() const { return config_; }

 private:
  Result<double> Step(SimTime now, double y) override;
  void ResetLaw(double initial_u) override;

  QuasiAdaptiveConfig config_;
  double u_;
  double b_hat_;
  double p_ = 1.0;  // RLS covariance.
  bool have_prev_ = false;
  double prev_y_ = 0.0;
  double prev_u_ = 0.0;       ///< Quantized actuation returned last step.
  double prev_prev_u_ = 0.0;  ///< Quantized actuation two steps back.
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_QUASI_ADAPTIVE_H_
