#include "core/controller_factory.h"

#include <cmath>

#include "control/adaptive_gain.h"
#include "control/feedforward.h"
#include "control/fixed_gain.h"
#include "control/quasi_adaptive.h"
#include "control/rule_based.h"
#include "control/target_tracking.h"

namespace flower::core {

namespace {

// Written so NaN fails it.
Status ValidateArgs(const char* who, double reference,
                    const control::ActuatorLimits& limits,
                    double gain_scale) {
  if (reference > 0.0 && reference < 100.0 && gain_scale > 0.0 &&
      std::isfinite(gain_scale) && limits.min <= limits.max) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::string(who) + ": need a reference in (0, 100) percent, a finite "
                         "gain_scale > 0 and limits with min <= max");
}

}  // namespace

std::string ControllerKindToString(ControllerKind k) {
  switch (k) {
    case ControllerKind::kAdaptiveGain: return "adaptive-gain";
    case ControllerKind::kAdaptiveGainNoMemory:
      return "adaptive-gain-no-memory";
    case ControllerKind::kFixedGain: return "fixed-gain";
    case ControllerKind::kQuasiAdaptive: return "quasi-adaptive";
    case ControllerKind::kRuleBased: return "rule-based";
    case ControllerKind::kTargetTracking: return "target-tracking";
    case ControllerKind::kFeedforward: return "feedforward";
  }
  return "unknown";
}

Result<ControllerKind> ControllerKindFromString(const std::string& s) {
  if (s == "adaptive-gain") return ControllerKind::kAdaptiveGain;
  if (s == "adaptive-gain-no-memory")
    return ControllerKind::kAdaptiveGainNoMemory;
  if (s == "fixed-gain") return ControllerKind::kFixedGain;
  if (s == "quasi-adaptive") return ControllerKind::kQuasiAdaptive;
  if (s == "rule-based") return ControllerKind::kRuleBased;
  if (s == "target-tracking") return ControllerKind::kTargetTracking;
  if (s == "feedforward") return ControllerKind::kFeedforward;
  return Status::InvalidArgument("unknown controller kind: " + s);
}

Result<std::unique_ptr<control::Controller>> MakeController(
    ControllerKind kind, double reference, control::ActuatorLimits limits,
    double gain_scale) {
  FLOWER_RETURN_NOT_OK(
      ValidateArgs("MakeController", reference, limits, gain_scale));
  switch (kind) {
    case ControllerKind::kAdaptiveGain:
    case ControllerKind::kAdaptiveGainNoMemory: {
      control::AdaptiveGainConfig cfg;
      cfg.reference = reference;
      // For the utilization plant y ~ 100*D/(u*C) the loop is stable
      // for l < u/(2*reference'); gain_max 0.3 keeps the loop stable
      // from ~10 resource units up while still allowing ~10x faster
      // reactions than the initial gain.
      cfg.initial_gain = 0.04 * gain_scale;
      cfg.gain_min = 0.02 * gain_scale;
      cfg.gain_max = 0.15 * gain_scale;
      cfg.gamma = 0.004 * gain_scale;
      cfg.reset_gain_each_step =
          kind == ControllerKind::kAdaptiveGainNoMemory;
      cfg.limits = limits;
      return std::unique_ptr<control::Controller>(
          new control::AdaptiveGainController(cfg));
    }
    case ControllerKind::kFixedGain: {
      control::FixedGainConfig cfg;
      cfg.reference = reference;
      cfg.gain = 0.05 * gain_scale;
      cfg.range_width = 40.0;
      cfg.limits = limits;
      return std::unique_ptr<control::Controller>(
          new control::FixedGainController(cfg));
    }
    case ControllerKind::kQuasiAdaptive: {
      control::QuasiAdaptiveConfig cfg;
      cfg.reference = reference;
      cfg.lambda = 0.3;
      cfg.initial_sensitivity = -5.0 / gain_scale;
      // The sensitivity floor bounds the effective gain at
      // lambda/sensitivity_min; 1.0 keeps the loop sane when CPU
      // saturation fools the RLS estimator (Δy = 0 despite Δu).
      cfg.sensitivity_min = 1.0 / gain_scale;
      cfg.sensitivity_max = 100.0 / gain_scale;
      cfg.limits = limits;
      return std::unique_ptr<control::Controller>(
          new control::QuasiAdaptiveController(cfg));
    }
    case ControllerKind::kRuleBased: {
      control::RuleBasedConfig cfg;
      cfg.high_threshold = reference + 15.0;
      cfg.low_threshold = reference - 25.0;
      cfg.up_step = 2.0 * gain_scale;
      cfg.down_step = 1.0 * gain_scale;
      cfg.limits = limits;
      return std::unique_ptr<control::Controller>(
          new control::RuleBasedController(cfg));
    }
    case ControllerKind::kTargetTracking: {
      control::TargetTrackingConfig cfg;
      cfg.reference = reference;
      cfg.limits = limits;
      return std::unique_ptr<control::Controller>(
          new control::TargetTrackingController(cfg));
    }
    case ControllerKind::kFeedforward:
      // Without a driver the controller runs feedback-only; prefer
      // MakeFeedforwardController.
      return MakeFeedforwardController(reference, limits, nullptr,
                                       gain_scale);
  }
  return Status::InvalidArgument("MakeController: unknown kind");
}

Result<std::unique_ptr<control::Controller>> MakeFeedforwardController(
    double reference, control::ActuatorLimits limits,
    std::function<Result<double>(SimTime)> driver, double gain_scale) {
  FLOWER_RETURN_NOT_OK(ValidateArgs("MakeFeedforwardController", reference,
                                    limits, gain_scale));
  control::FeedforwardConfig cfg;
  cfg.reference = reference;
  cfg.trim_gain = 0.04 * gain_scale;
  cfg.limits = limits;
  return std::unique_ptr<control::Controller>(
      new control::FeedforwardController(cfg, std::move(driver)));
}

}  // namespace flower::core
