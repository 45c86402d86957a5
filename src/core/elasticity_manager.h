#ifndef FLOWER_CORE_ELASTICITY_MANAGER_H_
#define FLOWER_CORE_ELASTICITY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloudwatch/metric_store.h"
#include "common/random.h"
#include "control/controller.h"
#include "core/layer.h"
#include "core/resource_share.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

namespace flower::obs::replay {
class FlightRecorder;
}  // namespace flower::obs::replay

namespace flower::core {

/// Bounded retry with exponential backoff and jitter for failed
/// actuations (real resize/provisioning calls throttle and fail
/// transiently). Disabled by default (max_retries == 0): a failed
/// actuation is counted and the loop waits for its next period, which
/// is the original fair-weather behavior.
struct RetryPolicy {
  int max_retries = 0;  ///< Retry attempts after the initial failure.
  double initial_backoff_sec = 2.0;
  double backoff_multiplier = 2.0;
  double max_backoff_sec = 30.0;
  /// Uniform jitter of +/- this fraction applied to each backoff so
  /// retries from many loops do not synchronize into a thundering herd.
  double jitter_fraction = 0.2;
  /// Seeds the per-loop jitter stream (deterministic runs).
  uint64_t jitter_seed = 42;
};

/// Per-loop circuit breaker. After `failure_threshold` consecutive
/// failed actuation attempts the loop stops calling the actuator for
/// `cooldown_sec` (open state), then lets a single probe attempt
/// through (half-open): success closes the breaker, failure re-opens
/// it for another cooldown. Disabled by default (threshold == 0).
struct CircuitBreakerPolicy {
  int failure_threshold = 0;
  double cooldown_sec = 300.0;
};

/// What a loop does when the sensor read fails (no datapoints in the
/// window, a metric-store gap, or an injected fault).
enum class SensorMissPolicy {
  kSkipStep,       ///< Count a miss and skip the step (the default).
  kHoldLastValue,  ///< Re-use the last good measurement (stale read).
};

struct SensorPolicy {
  SensorMissPolicy on_miss = SensorMissPolicy::kSkipStep;
  /// kHoldLastValue only: maximum age of the held measurement. A miss
  /// with an older (or no) last good value still skips the step.
  /// 0 = no age limit.
  double max_hold_sec = 0.0;
};

/// Bundle of the per-loop hardening knobs. Everything is off by
/// default, which reproduces the original loop behavior exactly; see
/// DESIGN.md ("Fault injection and control-loop resilience") for how
/// the pieces compose.
struct ResiliencePolicy {
  RetryPolicy retry;
  CircuitBreakerPolicy breaker;
  SensorPolicy sensor;
};

/// Periodic resource-share re-planning on the simulation clock
/// (paper §3.2 run as part of the control plane). Every `period_sec`
/// the manager re-runs the share analysis through an incremental
/// ResourceShareAnalyzer — plan cache, warm starts, and convergence
/// early-exit per `incremental` — and applies the front's per-layer
/// MaxShares as the attached loops' share upper bounds. Consecutive
/// periods with an unchanged request are served from the plan cache
/// (no solver run at all) when `incremental.cache` is on.
struct ReplanConfig {
  ResourceShareRequest request;
  opt::Nsga2Config solver;
  IncrementalPlanning incremental;
  double period_sec = 3600.0;
  double start_delay_sec = 0.0;
  /// Optional hook refreshing the request before each re-plan (budget
  /// drift, newly learned dependency constraints). An unchanged
  /// request keeps the plan cache hot.
  std::function<void(SimTime, ResourceShareRequest*)> update_request;
};

/// Everything needed to run one layer's control loop (paper §2: each
/// layer gets a sensor, an adaptive controller, and an actuator).
struct LayerControlConfig {
  Layer layer = Layer::kAnalytics;
  /// Loop name; defaults to the layer name. Flows with several
  /// resources in one layer (e.g. two ingestion streams feeding a join)
  /// attach one named loop per resource.
  std::string name;
  /// The sensed metric (e.g. Flower/Storm CpuUtilization{storm}).
  cloudwatch::MetricId sensor_metric;
  /// Control period: how often the loop senses and actuates (§2's
  /// "monitoring window" knob in the demo's configuration wizard).
  double monitoring_period_sec = 60.0;
  /// The sensor aggregates over the trailing window of this length
  /// (query interval `(now - window, now]`).
  double monitoring_window_sec = 120.0;
  /// First firing of the loop, relative to attach time.
  double start_delay_sec = 60.0;
  /// The control law (owned by the manager after Attach).
  std::unique_ptr<control::Controller> controller;
  /// Applies the new resource amount to the managed service (resize
  /// shards / VMs / WCU). Failed actuations are counted and, per the
  /// resilience policy, retried with backoff and/or circuit-broken.
  std::function<Status(double)> actuator;
  /// Optional sensor override. When unset the loop queries the metric
  /// store for `sensor_metric` over the trailing monitoring window
  /// (see MakeDefaultSensor). A FaultInjector wraps either form.
  std::function<Result<double>(SimTime)> sensor;
  /// Initial actuator value (current provisioned amount).
  double initial_u = 1.0;
  /// Retry / circuit-breaker / sensor-miss knobs.
  ResiliencePolicy resilience;
};

/// Plain-value copy of a loop's counters, safe to keep after the
/// manager (and its metrics registry) is gone.
struct LoopCounterSnapshot {
  uint64_t sensor_misses = 0;
  uint64_t actuation_failures = 0;
  uint64_t actuation_retries = 0;
  uint64_t retry_successes = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_skipped_steps = 0;
  uint64_t stale_sensor_reads = 0;
};

/// Per-loop runtime state, traces and counters, for evaluation and the
/// monitoring dashboard. Nothing here is a second record of a step: the
/// traces are views over the manager's decision log, and the counters
/// live in its telemetry metrics registry (labeled by loop and layer),
/// so every consumer — dashboard, exporters, tests — reads the same
/// data. NOTE: copying this struct copies *pointers* into the telemetry
/// hub — take CountersSnapshot() if the copy may outlive the manager.
struct LayerControlState {
  bool breaker_open = false;        ///< Live circuit-breaker state.
  double share_upper_bound = 0.0;  ///< 0 = unbounded.

  /// The decision log the traces read and this loop's id in it,
  /// installed by the manager at Attach.
  const obs::DecisionLog* log = nullptr;
  obs::LoopId loop_id = 0;

  /// y_k of each retained step that had a measurement, fresh or held:
  /// this loop's decision records whose outcome is not kSensorMiss.
  /// Built from the log on every call, so it covers only the steps the
  /// log's ring still retains (65,536 records by default).
  TimeSeries sensed() const;
  /// u_{k+1} of each retained step that chose an amount: this loop's
  /// kActuated, kActuationFailed and kBreakerOpen records (an open
  /// breaker records what the loop wanted). Same retention as sensed().
  TimeSeries actuations() const;

  /// Registry-backed loop counters, installed by the manager at Attach.
  struct Counters {
    obs::Counter* sensor_misses = nullptr;
    obs::Counter* actuation_failures = nullptr;
    obs::Counter* actuation_retries = nullptr;
    obs::Counter* retry_successes = nullptr;
    obs::Counter* breaker_trips = nullptr;
    obs::Counter* breaker_skipped_steps = nullptr;
    obs::Counter* stale_sensor_reads = nullptr;
  };
  Counters counters;

  /// Steps skipped: no usable measurement.
  uint64_t sensor_misses() const { return Val(counters.sensor_misses); }
  /// Failed attempts (initial + retry).
  uint64_t actuation_failures() const {
    return Val(counters.actuation_failures);
  }
  /// Backoff retry attempts made.
  uint64_t actuation_retries() const {
    return Val(counters.actuation_retries);
  }
  /// Actuations that landed on a retry.
  uint64_t retry_successes() const { return Val(counters.retry_successes); }
  /// Transitions into the open state.
  uint64_t breaker_trips() const { return Val(counters.breaker_trips); }
  /// Actuations skipped while open.
  uint64_t breaker_skipped_steps() const {
    return Val(counters.breaker_skipped_steps);
  }
  /// Steps run on a held last value.
  uint64_t stale_sensor_reads() const {
    return Val(counters.stale_sensor_reads);
  }

  LoopCounterSnapshot CountersSnapshot() const {
    return {sensor_misses(),       actuation_failures(),
            actuation_retries(),   retry_successes(),
            breaker_trips(),       breaker_skipped_steps(),
            stale_sensor_reads()};
  }

 private:
  static uint64_t Val(const obs::Counter* c) { return c ? c->Value() : 0; }
};

/// Flower's elasticity manager: runs one adaptive control loop per
/// layer on the simulation clock. Each loop (1) senses the layer's
/// utilization statistic over the trailing monitoring window, (2) asks
/// the layer's controller for the next resource amount, (3) caps it by
/// the layer's resource-share upper bound from the
/// ResourceShareAnalyzer, and (4) invokes the actuator.
///
/// The manager is hardened against control-path faults (see
/// ResiliencePolicy): failed actuations can be retried with bounded
/// exponential backoff + jitter, a per-loop circuit breaker stops
/// hammering a persistently failing actuator, and sensor misses can
/// fall back to the last good measurement. All hardening is opt-in;
/// with the default policy the manager behaves exactly like the
/// original fair-weather implementation.
class ElasticityManager {
 public:
  /// Routes all telemetry (metrics, decision log, spans) to `telemetry`,
  /// e.g. a hub shared with the fault injector and simulator, which
  /// must outlive the manager. Null builds a private hub, so decision
  /// records and counters are always collected.
  ElasticityManager(sim::Simulation* sim,
                    const cloudwatch::MetricStore* metrics,
                    obs::Telemetry* telemetry = nullptr);

  obs::Telemetry* telemetry() const { return telemetry_; }

  /// Renders this manager's causal spans in their own Perfetto process
  /// lane (pid) named `scope` — one lane per flow in fleet runs instead
  /// of every flow interleaving on shared tracks. Must be called before
  /// the first Attach.
  Status SetTraceScope(const std::string& scope);

  /// Namespaces every instrument this manager registers — the per-loop
  /// gauges/counters and the planner.* series — with a {"tenant", id}
  /// label. Without it two tenants that use the same layer names and
  /// share one registry collide on identical series and their counts
  /// merge silently. Must precede the first Attach and EnableReplanning.
  Status SetTenantLabel(const std::string& tenant);
  const std::string& tenant_label() const { return tenant_; }

  /// Queried at every control step for the layer's current flow-health
  /// bits (obs::HealthMask layout, typically
  /// obs::health::HealthMonitor::MaskFor). The mask is stamped on the
  /// step's decision record and counted in the loop.breach_steps
  /// counter when any breach bit is set. Pass nullptr to detach
  /// (records stamp 0 again).
  void SetHealthAnnotator(
      std::function<obs::HealthMask(const std::string& layer, SimTime now)>
          annotator);

  /// Attaches a flight recorder: every control decision is mirrored
  /// into it (same record the decision log gets, resolved against the
  /// log's loop table) and every applied re-plan lands as a replan
  /// entry, so the black box carries the exact digest the fleet's
  /// divergence checker replays against. `recorder` must outlive the
  /// manager; nullptr detaches. The record path is allocation-free,
  /// safe for capped fleet partitions.
  void SetFlightRecorder(obs::replay::FlightRecorder* recorder);

  /// Attaches and starts a control loop. The loop is keyed by
  /// `config.name` (default: the layer name) and registered in the
  /// decision log's loop table. Errors: duplicate name, missing
  /// controller/actuator, non-positive periods, an invalid resilience
  /// policy, or a full loop table.
  Status Attach(LayerControlConfig config);

  /// The default sensor for `config`: queries this manager's metric
  /// store for the average of `sensor_metric` over the trailing
  /// monitoring window `(now - window, now]`. Exposed so callers (e.g.
  /// a FlowBuilder wiring a FaultInjector) can wrap it before Attach.
  std::function<Result<double>(SimTime)> MakeDefaultSensor(
      const LayerControlConfig& config) const;

  /// Starts the periodic incremental re-planning loop. The analyzer's
  /// planner.* counters land in this manager's metrics registry.
  /// Errors: already enabled, or non-positive period. Failed re-plan
  /// runs are counted (planner.replan_failures) and skipped; the loops
  /// keep their previous bounds.
  Status EnableReplanning(ReplanConfig config);
  bool replanning_enabled() const { return replan_ != nullptr; }
  /// Counters of the re-planning analyzer (NotFound when re-planning
  /// was never enabled).
  Result<PlannerCounters> ReplanCounters() const;

  /// Sets a loop's maximum resource share (from §3.2's analysis);
  /// 0 disables the cap. Takes effect from the next control step.
  /// The Layer overloads address the loop with the default name.
  Status SetShareUpperBound(const std::string& name, double bound);
  Status SetShareUpperBound(Layer layer, double bound) {
    return SetShareUpperBound(LayerToString(layer), bound);
  }

  /// Pauses/resumes a loop (the loop keeps firing but neither senses
  /// nor actuates while paused; outstanding retries are dropped).
  Status SetPaused(const std::string& name, bool paused);
  Status SetPaused(Layer layer, bool paused) {
    return SetPaused(LayerToString(layer), paused);
  }

  bool IsAttached(const std::string& name) const {
    return loops_.count(name) > 0;
  }
  bool IsAttached(Layer layer) const {
    return IsAttached(LayerToString(layer));
  }
  /// Runtime state, traces and counters of an attached loop.
  Result<const LayerControlState*> GetState(const std::string& name) const;
  Result<const LayerControlState*> GetState(Layer layer) const {
    return GetState(LayerToString(layer));
  }
  /// The controller of an attached loop (for inspection).
  Result<const control::Controller*> GetController(
      const std::string& name) const;
  Result<const control::Controller*> GetController(Layer layer) const {
    return GetController(LayerToString(layer));
  }

  /// Names of all attached loops, sorted.
  std::vector<std::string> LoopNames() const;

 private:
  struct Attached {
    LayerControlConfig config;
    LayerControlState state;
    bool paused = false;
    /// Resolved sensor (config.sensor or the default metric query).
    std::function<Result<double>(SimTime)> sense;
    /// Jitter stream for retry backoff.
    Rng rng{42};
    /// Bumped at every control step; outstanding retries carry the
    /// epoch they were scheduled under and no-op once superseded.
    uint64_t epoch = 0;
    int consecutive_failures = 0;
    SimTime breaker_reopen_time = 0.0;
    bool has_last_good = false;
    double last_good_value = 0.0;
    SimTime last_good_time = 0.0;
    /// Telemetry plumbing.
    int trace_tid = 0;
    /// Causal-span state (all 0 while span recording is disabled):
    /// the step's sense/decide spans, the latest actuation attempt
    /// (follows-from link for retries), and the last *successful*
    /// actuation still awaiting its observed effect.
    obs::SpanId current_sense_span = 0;
    obs::SpanId current_decide_span = 0;
    obs::SpanId last_attempt_span = 0;
    obs::SpanId pending_effect_parent = 0;
    SimTime pending_effect_start = 0.0;
    obs::Gauge* gauge_y = nullptr;
    obs::Gauge* gauge_u = nullptr;
    obs::Gauge* gauge_gain = nullptr;
    /// Steps that ran while the health annotator reported any breach
    /// bit for this loop's layer.
    obs::Counter* breach_steps = nullptr;
  };

  struct ReplanState {
    ReplanConfig config;
    ResourceShareAnalyzer analyzer;
    obs::Counter* failures = nullptr;
    obs::Gauge* front_size = nullptr;
  };

  void Step(Attached* a);
  void ReplanStep(ReplanState* s);
  /// `labels` plus the {"tenant", ...} pair when a tenant label is set.
  obs::LabelSet WithTenant(obs::LabelSet labels) const;
  /// One actuation attempt (attempt 0 = the step's own attempt);
  /// schedules the next retry / trips the breaker on failure. Returns
  /// whether THIS attempt succeeded (retries land asynchronously).
  bool Actuate(Attached* a, double amount, int attempt);

  /// Appends one decision record and closes the step's decide span.
  /// `gain` and `raw_u` are NaN when the control law did not run.
  void RecordDecision(Attached* a, SimTime now, double sensed_y, bool stale,
                      double gain, double raw_u, double clamped_u,
                      obs::StepOutcome outcome);

  sim::Simulation* sim_;
  const cloudwatch::MetricStore* metrics_;
  /// Private fallback hub; `telemetry_` points here unless the
  /// constructor was given an external one.
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  std::function<obs::HealthMask(const std::string&, SimTime)>
      health_annotator_;
  obs::replay::FlightRecorder* flight_recorder_ = nullptr;
  /// Tenant id stamped on every registered instrument (fleet runs);
  /// empty = no tenant label (single-flow behavior unchanged).
  std::string tenant_;
  int next_trace_tid_ = obs::kFirstLoopTid;
  /// Trace process lane for this manager's loops (kTracePid unless
  /// SetTraceScope registered a dedicated scope).
  int trace_pid_ = obs::kTracePid;
  /// Last successful re-plan's kPlan span: decisions taken under its
  /// share bounds link to it with a follows-from edge.
  obs::SpanId last_plan_span_ = 0;
  std::map<std::string, std::unique_ptr<Attached>> loops_;
  std::unique_ptr<ReplanState> replan_;
};

}  // namespace flower::core

#endif  // FLOWER_CORE_ELASTICITY_MANAGER_H_
