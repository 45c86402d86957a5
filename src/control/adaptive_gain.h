#ifndef FLOWER_CONTROL_ADAPTIVE_GAIN_H_
#define FLOWER_CONTROL_ADAPTIVE_GAIN_H_

#include "control/controller.h"

namespace flower::control {

/// Configuration of Flower's adaptive-gain controller (paper Eq. 6–7).
struct AdaptiveGainConfig {
  double reference = 60.0;   ///< Desired sensor value y_r.
  double initial_gain = 0.05;///< l_0.
  double gain_min = 0.005;   ///< l_min > 0 (Eq. 7).
  double gain_max = 1.0;     ///< l_max (Eq. 7).
  double gamma = 0.002;      ///< Adaptation rate γ > 0 (Eq. 7).
  /// When true (ablation), the gain is reset to initial_gain before
  /// every step, removing the controller's memory of past decisions.
  bool reset_gain_each_step = false;
  ActuatorLimits limits;
};

/// Flower's adaptive integral controller (§3.3):
///
///   u_{k+1} = u_k + l_{k+1} (y_k − y_r)                       (Eq. 6)
///   l_{k+1} = clamp(l_k + γ (y_k − y_r), l_min, l_max)        (Eq. 7)
///
/// The gain `l` keeps the *history of previously computed control
/// gains*: a persistent error drives the gain up in multiple stages,
/// which is what the paper credits for rapid elasticity, while the
/// clamp guarantees stability (analysis in the companion journal
/// paper [9]).
class AdaptiveGainController final : public Controller {
 public:
  explicit AdaptiveGainController(AdaptiveGainConfig config);

  std::string name() const override {
    return config_.reset_gain_each_step ? "adaptive-gain(no-memory)"
                                        : "adaptive-gain";
  }
  double current_u() const override { return config_.limits.Quantize(u_); }
  double reference() const override { return config_.reference; }
  void set_reference(double y_r) override { config_.reference = y_r; }

  /// Current adapted gain l_k (for monitoring/tests).
  double gain() const { return gain_; }
  const AdaptiveGainConfig& config() const { return config_; }

 private:
  Result<double> Step(SimTime now, double y) override;
  void ResetLaw(double initial_u) override;

  AdaptiveGainConfig config_;
  /// Continuous integrator state. The returned actuation is the
  /// quantized value, but integration stays continuous so small
  /// persistent errors accumulate instead of being rounded away
  /// (otherwise an integer actuator can deadlock when
  /// |l·e| < 0.5 forever).
  double u_;
  double gain_;
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_ADAPTIVE_GAIN_H_
