#ifndef FLOWER_CORE_CONTROLLER_FACTORY_H_
#define FLOWER_CORE_CONTROLLER_FACTORY_H_

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "control/controller.h"

namespace flower::core {

/// Controller families selectable in the flow configuration wizard
/// (demo step 2). The first is Flower's own; the rest are the
/// baselines the paper positions against.
enum class ControllerKind {
  kAdaptiveGain,          ///< Flower (Eq. 6–7), gain with memory.
  kAdaptiveGainNoMemory,  ///< Ablation: gain reset every step.
  kFixedGain,             ///< Lim et al. 2010 [12].
  kQuasiAdaptive,         ///< Padala et al. 2007 [14].
  kRuleBased,             ///< Cloud-provider threshold rules [1].
  kTargetTracking,        ///< Cloud-provider ratio-based target tracking.
  /// Flower extension: model-based feedforward from the learned
  /// cross-layer dependency (§3.1 + §3.3). Needs a driver signal; built
  /// via MakeFeedforwardController (MakeController falls back to
  /// feedback-only behaviour when no driver is supplied).
  kFeedforward,
};

std::string ControllerKindToString(ControllerKind k);
Result<ControllerKind> ControllerKindFromString(const std::string& s);

/// Builds a controller of the given family with defaults tuned for a
/// utilization-percentage sensor (y in [0, 100]).
///
/// `gain_scale` linearly scales the control gains to the magnitude of
/// the actuated resource: use ~1 when the resource counts in units
/// (VMs, shards), ~(max_units / 100) when it counts in hundreds or
/// thousands (DynamoDB capacity units). Errors: reference outside
/// (0, 100), gain_scale not finite and > 0, or inverted limits (NaN
/// fails every check).
Result<std::unique_ptr<control::Controller>> MakeController(
    ControllerKind kind, double reference, control::ActuatorLimits limits,
    double gain_scale = 1.0);

/// Builds the feedforward controller with an explicit exogenous driver
/// (e.g. a metric-store query for the upstream arrival rate). Same
/// validation rules as MakeController.
Result<std::unique_ptr<control::Controller>> MakeFeedforwardController(
    double reference, control::ActuatorLimits limits,
    std::function<Result<double>(SimTime)> driver, double gain_scale = 1.0);

}  // namespace flower::core

#endif  // FLOWER_CORE_CONTROLLER_FACTORY_H_
