#ifndef FLOWER_SIM_FAULT_INJECTOR_H_
#define FLOWER_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/time_series.h"
#include "obs/event_log.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

namespace flower::sim {

/// InvalidArgument unless the injector can run `spec`: start finite,
/// end > start (end may be infinity), probability in [0, 1], delay_sec
/// finite and >= 0, factor and offset finite. Each check holds only for
/// numbers, so a NaN field fails it. FaultInjector::Add runs it, and so
/// does fleet::ValidateTenant for each of a tenant's faults.
Status ValidateFault(const obs::FaultSpec& spec);

/// Counters of what the injector actually did (for reports and tests).
struct FaultInjectorStats {
  uint64_t actuator_failures = 0;
  uint64_t actuator_throttles = 0;
  uint64_t metric_gaps = 0;
  uint64_t delayed_reads = 0;
  uint64_t sensor_spikes = 0;
};

/// Deterministic, seeded fault-injection subsystem for the simulated
/// services. The injector never reaches into a service; instead it
/// *wraps* the two functional seams every control loop already has —
/// the actuator `Status(double)` and the sensor
/// `Result<double>(SimTime)` — and corrupts calls whose simulated time
/// falls inside an active fault window. Because the simulation is
/// deterministic and all randomness comes from one seeded Rng, a given
/// (seed, schedule, workload) triple reproduces bit-identical runs.
///
/// Usage:
///   FaultInjector chaos(&sim, /*seed=*/7);
///   chaos.FailActuator("analytics", 2 * kHour, 2.5 * kHour, 0.75);
///   chaos.DropMetrics("analytics", 2 * kHour, 2.2 * kHour);
///   cfg.actuator = chaos.WrapActuator("analytics", std::move(cfg.actuator));
///   cfg.sensor   = chaos.WrapSensor("analytics", std::move(sensor));
class FaultInjector {
 public:
  FaultInjector(Simulation* sim, uint64_t seed) : sim_(sim), rng_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers a fault; returns its id (for Clear). InvalidArgument
  /// when ValidateFault refuses it.
  Result<int> Add(obs::FaultSpec spec);

  // Convenience registrars for the common fault shapes. `probability`
  // < 1 makes the fault transient (per-call Bernoulli); `end` may be
  // infinity for a persistent fault cleared only by Clear/ClearAll.
  int FailActuator(const std::string& target, SimTime start, SimTime end,
                   double probability = 1.0);
  int ThrottleActuator(const std::string& target, SimTime start, SimTime end,
                       double probability = 1.0);
  int DropMetrics(const std::string& target, SimTime start, SimTime end,
                  double probability = 1.0);
  int DelayMetrics(const std::string& target, SimTime start, SimTime end,
                   double delay_sec);
  int SpikeSensor(const std::string& target, SimTime start, SimTime end,
                  double factor, double offset = 0.0,
                  double probability = 1.0);

  /// Deactivates one fault / all faults. Unknown ids are ignored.
  void Clear(int id);
  void ClearAll();

  /// Wraps an actuator: calls inside an active kActuatorFailure /
  /// kActuatorThrottle window fail with Internal / Throttled without
  /// reaching the inner actuator.
  std::function<Status(double)> WrapActuator(
      std::string target, std::function<Status(double)> inner);

  /// Wraps a sensor: kMetricDelay shifts the query time back,
  /// kMetricGap turns the read into NotFound, kSensorSpike distorts the
  /// returned value (applied in that order).
  std::function<Result<double>(SimTime)> WrapSensor(
      std::string target, std::function<Result<double>(SimTime)> inner);

  /// The longest lag any registered kMetricDelay fault can put on
  /// `target`'s sensor reads (0 when none): a wrapped read of a window
  /// W reaches back at most W + MaxDelaySec(target) seconds.
  double MaxDelaySec(const std::string& target) const;

  /// True when any fault of `kind` is active for `target` at time `t`.
  bool Active(obs::FaultKind kind, const std::string& target,
              SimTime t) const;

  /// Reports every injected fault to `telemetry`: a per-kind counter, a
  /// zero-duration kFault span on the fault-injector track (rendered as
  /// a trace instant; only while spans are enabled), and a fault note
  /// (so the ElasticityManager stamps decision records taken at the
  /// same sim time with the interference). Pass nullptr to detach. Not
  /// owned; must outlive the injector or be detached first.
  void SetTelemetry(obs::Telemetry* telemetry);

  const FaultInjectorStats& stats() const { return stats_; }
  size_t fault_count() const;

 private:
  struct Registered {
    int id;
    bool cleared = false;
    obs::FaultSpec spec;
  };

  /// First active, probability-passing fault of `kind` for `target` at
  /// the current simulated time; nullptr when none fires. Draws from
  /// the seeded Rng for transient faults (so results are deterministic
  /// given the call sequence).
  const obs::FaultSpec* Draw(obs::FaultKind kind, const std::string& target);

  /// Publishes one injected fault to the telemetry hub, if attached.
  void Note(obs::FaultKind kind, const std::string& target);

  Simulation* sim_;
  Rng rng_;
  int next_id_ = 0;
  std::vector<Registered> faults_;
  FaultInjectorStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace flower::sim

#endif  // FLOWER_SIM_FAULT_INJECTOR_H_
