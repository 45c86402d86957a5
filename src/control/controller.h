#ifndef FLOWER_CONTROL_CONTROLLER_H_
#define FLOWER_CONTROL_CONTROLLER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/time_series.h"

namespace flower::control {

/// Bounds on the actuated resource amount (shards, VMs, capacity units).
struct ActuatorLimits {
  double min = 1.0;
  double max = 1e9;
  /// Resource counts are integral; the controller's continuous output is
  /// rounded to the nearest integer in [min, max] by `Quantize`.
  bool integer = true;

  double Clamp(double u) const;
  /// Clamp then (optionally) round to integer.
  double Quantize(double u) const;
};

/// A feedback controller regulating one resource of one layer.
///
/// Protocol: the elasticity manager calls `Update(now, y_k)` once per
/// monitoring period with the sensed measurement (e.g. CPU utilization
/// in percent); the controller returns the next actuator value
/// `u_{k+1}` (e.g. number of VMs), already quantized to the actuator
/// limits. The step clock lives here, once for every law: `Update`
/// checks `now` and runs the law's `Step` at most once per timestamp.
/// Implementations keep whatever internal state their control law
/// needs; `ResetLaw` reinitializes it with a starting actuator value.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Human-readable family name ("adaptive-gain", "fixed-gain", ...).
  virtual std::string name() const = 0;

  /// Restarts the step clock and reinitializes the law's state;
  /// `initial_u` is the currently provisioned resource amount.
  void Reset(double initial_u);

  /// Computes the next actuator value from measurement `y` at time
  /// `now`. `now` must be non-decreasing (simulated time is
  /// nonnegative); time moving backwards is an InvalidArgument error. A
  /// repeated timestamp (`now` equal to the previous call's) is an
  /// idempotent no-op that returns `current_u()` without re-applying
  /// the control law — a duplicate tick must not double-apply
  /// gain/integral action, breach counts or cooldowns. Otherwise the
  /// law's `Step` runs once.
  Result<double> Update(SimTime now, double y);

  /// Current actuator value (last returned by Update, or initial).
  virtual double current_u() const = 0;

  /// Desired reference measurement y_r (e.g. 60% utilization).
  virtual double reference() const = 0;
  virtual void set_reference(double y_r) = 0;

  /// Effective Updates so far, and the latest one's gain (NaN for laws
  /// without one) and output before quantization. A duplicate-timestamp
  /// no-op or an error leaves all three unchanged.
  uint64_t steps() const { return steps_; }
  double last_gain() const { return last_gain_; }
  double last_raw_u() const { return last_raw_u_; }

 protected:
  /// Called by implementations once per effective Update.
  void RecordStep(double gain, double raw_u) {
    ++steps_;
    last_gain_ = gain;
    last_raw_u_ = raw_u;
  }

 private:
  /// One application of the control law at a fresh timestamp `now`.
  virtual Result<double> Step(SimTime now, double y) = 0;
  /// Reinitializes the law's own state (the clock is already reset).
  virtual void ResetLaw(double initial_u) = 0;

  SimTime last_time_ = -1.0;
  uint64_t steps_ = 0;
  double last_gain_ = 0.0;
  double last_raw_u_ = 0.0;
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_CONTROLLER_H_
