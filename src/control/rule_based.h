#ifndef FLOWER_CONTROL_RULE_BASED_H_
#define FLOWER_CONTROL_RULE_BASED_H_

#include "control/controller.h"

namespace flower::control {

/// Configuration of the rule-based baseline, modelled on cloud-provider
/// auto-scaling (the paper's reference [1]): static thresholds, fixed
/// step sizes, breach counts, and cooldowns.
struct RuleBasedConfig {
  double high_threshold = 75.0;  ///< Scale up when y stays above this.
  double low_threshold = 35.0;   ///< Scale down when y stays below this.
  /// Consecutive breaching observations required before acting (the
  /// CloudWatch-alarm "evaluation periods").
  int breach_periods = 2;
  /// Additive step applied on scale-up / scale-down.
  double up_step = 2.0;
  double down_step = 1.0;
  /// Minimum time between consecutive scaling actions, seconds.
  double up_cooldown = 120.0;
  double down_cooldown = 300.0;
  ActuatorLimits limits;
};

/// Threshold-rule autoscaler: "almost all the auto-scaling systems
/// offered by cloud providers ... use simple rule-based techniques"
/// (paper §1). Reacts only after `breach_periods` consecutive
/// violations and then by a fixed step, so it adapts poorly to
/// unforeseen demand changes — the behaviour Flower's controllers are
/// designed to beat.
///
/// The `reference()` reported is the midpoint of the two thresholds
/// (used by evaluation metrics; the rules themselves only use the
/// thresholds).
class RuleBasedController final : public Controller {
 public:
  explicit RuleBasedController(RuleBasedConfig config);

  std::string name() const override { return "rule-based"; }
  double current_u() const override { return u_; }
  double reference() const override {
    return 0.5 * (config_.high_threshold + config_.low_threshold);
  }
  void set_reference(double y_r) override;

  const RuleBasedConfig& config() const { return config_; }

 private:
  Result<double> Step(SimTime now, double y) override;
  void ResetLaw(double initial_u) override;

  RuleBasedConfig config_;
  double u_;
  int high_breaches_ = 0;
  int low_breaches_ = 0;
  SimTime last_action_time_ = -1e18;
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_RULE_BASED_H_
