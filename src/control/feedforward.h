#ifndef FLOWER_CONTROL_FEEDFORWARD_H_
#define FLOWER_CONTROL_FEEDFORWARD_H_

#include <functional>

#include "control/controller.h"

namespace flower::control {

/// Configuration of the model-based feedforward controller.
struct FeedforwardConfig {
  double reference = 60.0;
  /// RLS forgetting factor for the online workload model.
  double forgetting = 0.98;
  /// Gain of the feedback trim integrator correcting model error.
  double trim_gain = 0.05;
  /// Trim is clamped to +/- this fraction of the feedforward term.
  double max_trim_fraction = 0.5;
  ActuatorLimits limits;
};

/// Flower extension: feedforward provisioning driven by the learned
/// cross-layer dependency (combining §3.1's regression models with
/// §3.3's controllers).
///
/// The controller observes an *exogenous driver* x_k — e.g. the
/// ingestion layer's arrival rate, which §3.1 showed predicts analytics
/// CPU with r ≈ 0.95 — and learns online (2-parameter RLS) the
/// workload model
///
///   W_k = a + b·x_k        where W_k = y_k · u_k  (demand in
///                          capacity-units × percent)
///
/// It then provisions proactively for the *current* driver value:
///
///   u_{k+1} = (a + b·x_k) / y_r  +  trim_k
///
/// where trim is a small feedback integrator absorbing model bias.
/// Because the driver leads the utilization signal (upstream arrivals
/// reach the analytics layer after queueing), feedforward reacts to a
/// surge before utilization saturates — the measurement y clips at
/// 100%, the driver does not.
///
/// When the driver is unavailable (provider errors), the controller
/// degrades to pure integral feedback on y.
class FeedforwardController final : public Controller {
 public:
  /// `driver` returns the exogenous signal at (or just before) `now`,
  /// e.g. a metric-store query for the upstream arrival rate.
  using DriverFn = std::function<Result<double>(SimTime)>;

  FeedforwardController(FeedforwardConfig config, DriverFn driver);

  std::string name() const override { return "feedforward"; }
  double current_u() const override { return config_.limits.Quantize(u_); }
  double reference() const override { return config_.reference; }
  void set_reference(double y_r) override { config_.reference = y_r; }

  /// Current workload-model coefficients (a, b) — for tests/monitoring.
  double model_intercept() const { return a_; }
  double model_slope() const { return b_; }
  /// Steps where the driver was unavailable and feedback-only was used.
  uint64_t driver_misses() const { return driver_misses_; }
  /// Current feedback trim (bounded by max_trim_fraction of the
  /// feedforward term).
  double trim() const { return trim_; }
  const FeedforwardConfig& config() const { return config_; }

 private:
  Result<double> Step(SimTime now, double y) override;
  void ResetLaw(double initial_u) override;

  void RlsUpdate(double x, double w);

  FeedforwardConfig config_;
  DriverFn driver_;
  double u_;
  double trim_ = 0.0;
  // RLS state for W = a + b*x.
  double a_ = 0.0;
  double b_ = 0.0;
  double p_[2][2] = {{1e6, 0.0}, {0.0, 1e6}};  // Large prior covariance.
  uint64_t observations_ = 0;
  uint64_t driver_misses_ = 0;
};

}  // namespace flower::control

#endif  // FLOWER_CONTROL_FEEDFORWARD_H_
