#ifndef FLOWER_OBS_TELEMETRY_H_
#define FLOWER_OBS_TELEMETRY_H_

#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "obs/event_log.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "opt/nsga2.h"

namespace flower::obs {

/// Central telemetry hub for one simulated flow: the metrics registry,
/// the control-decision log, and the causal spans, plus the
/// fault-interference scoreboard that lets the ElasticityManager stamp
/// decision records with the faults injected at the same sim time.
///
/// Ownership: the FlowBuilder/tool owns a Telemetry and hands raw
/// pointers to the manager and the fault injector; the hub must
/// outlive both. A manager with no external hub creates its own
/// private one, so instrumentation is never conditional.
class Telemetry {
 public:
  explicit Telemetry(size_t decision_capacity = 65536)
      : decisions_(decision_capacity) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  DecisionLog& decisions() { return decisions_; }
  const DecisionLog& decisions() const { return decisions_; }
  /// Causal control spans, the source of the exported trace. Disabled
  /// by default (zero-cost no-ops); enable with
  /// spans().set_enabled(true) before the run.
  SpanCollector& spans() { return spans_; }
  const SpanCollector& spans() const { return spans_; }

  /// The kPlan span currently executing, if any — set by the
  /// ElasticityManager around a re-planning pass so coordinator-side
  /// planner observers (MakeNsga2Observer) can parent their
  /// per-generation spans under it. 0 outside a plan.
  void set_active_plan_span(SpanId span) { active_plan_span_ = span; }
  SpanId active_plan_span() const { return active_plan_span_; }

  /// Records that the fault injector interfered with `target` (a layer
  /// name) at sim time `now`. `bits` is 1 << FaultKind.
  void NoteFault(const std::string& target, FaultMask bits, SimTime now);

  /// Faults noted for `target` at exactly sim time `now`; 0 otherwise.
  /// Control steps sense/actuate at the instant they run, so an exact
  /// match is the right correlation window.
  FaultMask FaultMaskAt(const std::string& target, SimTime now) const;

  /// Writes the spans, joined with the decision log, as Chrome
  /// trace_event JSON to `path` (see WriteChromeTrace).
  Status ExportTrace(const std::string& path) const;

  /// Writes decision records then a metrics snapshot, one JSON object
  /// per line, to `path`. `at` stamps the snapshot lines (sim seconds).
  Status ExportJsonl(const std::string& path, SimTime at) const;

 private:
  struct FaultNote {
    SimTime time = -1.0;
    FaultMask mask = 0;
  };

  MetricsRegistry metrics_;
  DecisionLog decisions_;
  SpanCollector spans_;
  SpanId active_plan_span_ = 0;
  std::map<std::string, FaultNote> fault_notes_;
};

/// Adapts NSGA-II per-generation stats into telemetry: gauges for front
/// size / hypervolume / evaluations and one kGeneration span per
/// generation (value = front size) on the planner track, laid out
/// consecutively from `anchor` (sim seconds) with `slice_sec` synthetic
/// width each (the optimizer runs outside the simulation clock, so
/// generation spans are schematic).
std::function<void(const opt::Nsga2GenerationStats&)> MakeNsga2Observer(
    Telemetry* telemetry, std::string planner_name, SimTime anchor,
    double slice_sec = 0.25);

}  // namespace flower::obs

#endif  // FLOWER_OBS_TELEMETRY_H_
