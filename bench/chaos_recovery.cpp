// Chaos-recovery benchmark: replay the canonical click-stream flow
// through a flash crowd while a seeded fault schedule batters the
// analytics control loop (transient resize failures during the surge, a
// metric-store gap right after the ramp, a sensor spike later on), and
// compare the hardened manager (bounded retries, circuit breaker,
// hold-last-value sensing) against the unhardened fair-weather default.
//
// Reported per configuration, from the ground-truth CPU series in the
// metric store (not the loop's own possibly-faulted sensor):
//   - SLO-violation seconds: time the cluster spends above the 85% CPU
//     alarm line from surge onset to the end of the run.
//   - Time-to-recover: first moment after the overload begins where CPU
//     stays back under the alarm line for 5 sustained minutes.
// The whole scenario is deterministic: the same seed replays the exact
// same fault draws and workload, which the bench proves by running the
// hardened configuration twice and diffing the serialized results.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "obs/health/health_monitor.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/fault_injector.h"

namespace flower {
namespace {

constexpr double kBaseRate = 600.0;       // rec/s before the crowd.
constexpr double kCrowdExtra = 2400.0;    // extra rec/s at the peak.
constexpr SimTime kSurgeStart = kHour;    // crowd onset.
constexpr double kSurgeLength = 30.0 * kMinute;
constexpr SimTime kHorizon = 2.5 * kHour;
constexpr double kCpuSlo = 85.0;          // alarm line (dashboard example).
constexpr double kRecoverHold = 5.0 * kMinute;
constexpr double kControlPeriod = 120.0;  // FlowBuilder default.
constexpr double kHealthEval = 60.0;      // anomaly-bank tick spacing.
// The flow-health layer must notice each fault window this fast.
constexpr double kDetectBudget = 2.0 * kControlPeriod;

struct RunResult {
  double violation_sec = 0.0;
  double recover_sec = 0.0;   // Time-to-recover; kHorizon-censored.
  bool recovered = false;
  double drop_pct = 0.0;
  /// Plain-value counter snapshot: the registry-backed live state dies
  /// with the manager at the end of RunScenario.
  core::LoopCounterSnapshot analytics;
  size_t analytics_actuations = 0;
  uint64_t injected_failures = 0;
  uint64_t injected_gaps = 0;
  std::vector<double> cpu_trace;
  /// Seconds from each fault window's onset to the first anomaly event
  /// the health layer raised on the matching stream; < 0 = never seen.
  double detect_actuator_sec = -1.0;
  double detect_gap_sec = -1.0;
  double detect_spike_sec = -1.0;
  size_t anomaly_events = 0;
  /// Seconds from surge onset to the first decision whose causal span
  /// chain *attributes* the trouble — a kActuate child that failed —
  /// rather than merely flagging an anomalous stream; < 0 = never.
  double attribute_cause_sec = -1.0;
  uint64_t spans_recorded = 0;

  // Everything observable, fixed precision: two serializations are equal
  // iff the runs took identical trajectories.
  std::string Serialize() const {
    std::ostringstream os;
    os.precision(12);
    os << violation_sec << '|' << recover_sec << '|' << recovered << '|'
       << drop_pct << '|' << analytics_actuations << '|'
       << analytics.sensor_misses << '|' << analytics.stale_sensor_reads
       << '|' << analytics.actuation_failures << '|'
       << analytics.actuation_retries << '|' << analytics.retry_successes
       << '|' << analytics.breaker_trips << '|'
       << analytics.breaker_skipped_steps << '|' << injected_failures << '|'
       << injected_gaps << '|' << detect_actuator_sec << '|' << detect_gap_sec
       << '|' << detect_spike_sec << '|' << anomaly_events << '|'
       << attribute_cause_sec << '|' << spans_recorded;
    for (double v : cpu_trace) os << '|' << v;
    return os.str();
  }
};

// First anomaly the health layer raised at/after `t0` on a stream whose
// id contains `metric`, as a latency from `t0`; -1 if never flagged.
double DetectionLatency(const std::deque<obs::health::AnomalyEvent>& log,
                        const std::string& metric, SimTime t0) {
  for (const obs::health::AnomalyEvent& ev : log) {
    if (ev.time >= t0 && ev.stream.find(metric) != std::string::npos) {
      return ev.time - t0;
    }
  }
  return -1.0;
}

// The fault schedule every run replays, seeded identically.
void ScheduleFaults(sim::FaultInjector* chaos) {
  // Resizes fail 80% of the time while the crowd is hammering the flow —
  // exactly when the loop most needs to act. Transient: retries redraw.
  chaos->FailActuator("analytics", kSurgeStart, kSurgeStart + 25.0 * kMinute,
                      0.8);
  // The metric store goes dark for 6 minutes just after the ramp, when
  // the last good reading already shows the overload.
  chaos->DropMetrics("analytics", kSurgeStart + 6.0 * kMinute,
                     kSurgeStart + 12.0 * kMinute);
  // A later telemetry glitch quadruples the sensed CPU for two minutes.
  chaos->SpikeSensor("analytics", 110.0 * kMinute, 112.0 * kMinute, 4.0);
}

core::ResiliencePolicy HardenedPolicy() {
  core::ResiliencePolicy p;
  p.retry.max_retries = 3;
  p.retry.initial_backoff_sec = 5.0;
  p.retry.backoff_multiplier = 2.0;
  p.retry.jitter_fraction = 0.2;
  p.breaker.failure_threshold = 6;
  p.breaker.cooldown_sec = 3.0 * kMinute;
  p.sensor.on_miss = core::SensorMissPolicy::kHoldLastValue;
  p.sensor.max_hold_sec = 10.0 * kMinute;
  return p;
}

Result<RunResult> RunScenario(bool hardened, uint64_t seed) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry;
  // Causal spans on: the bench measures time-to-attributed-cause from
  // the recorded sense -> decide -> actuate chains after the run.
  telemetry.spans().set_enabled(true);
  sim::FaultInjector chaos(&sim, seed);
  ScheduleFaults(&chaos);

  // The flow-health layer rides along: one anomaly detector per
  // resilience counter plus the sensed signal itself, so every fault
  // window in the schedule has a stream that should light up.
  obs::health::HealthMonitor health(&telemetry, kHealthEval);
  for (const char* metric :
       {"loop.actuation_failures", "loop.sensor_misses",
        "loop.stale_sensor_reads"}) {
    FLOWER_RETURN_NOT_OK(health.Watch(
        obs::health::AnomalyBank::Source::kCounterRate,
        {metric, {{"loop", "analytics"}, {"layer", "analytics"}}},
        "analytics"));
  }
  FLOWER_RETURN_NOT_OK(health.Watch(
      obs::health::AnomalyBank::Source::kGauge,
      {"loop.sensed_y", {{"loop", "analytics"}, {"layer", "analytics"}}},
      "analytics"));
  (void)sim.SchedulePeriodic(kHealthEval, kHealthEval, [&] {
    health.Evaluate(sim.Now());
    return true;
  });

  auto arrival = std::make_shared<workload::CompositeArrival>();
  arrival->Add(std::make_shared<workload::ConstantArrival>(kBaseRate));
  arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
      0.0, kCrowdExtra, kSurgeStart, kSurgeLength, 2.0 * kMinute));

  core::FlowBuilder builder;
  builder.WithFlowConfig(bench::CanonicalFlow())
      .WithWorkload(arrival, bench::CanonicalWorkload())
      .WithSeed(seed)
      .WithTelemetry(&telemetry)
      .WithFaultInjector(&chaos);
  if (hardened) builder.WithResilience(HardenedPolicy());
  FLOWER_ASSIGN_OR_RETURN(core::ManagedFlow mf,
                          builder.Build(&sim, &metrics));
  sim.RunUntil(kHorizon);

  RunResult out;
  FLOWER_ASSIGN_OR_RETURN(
      const TimeSeries* cpu,
      metrics.GetSeries({"Flower/Storm", "CpuUtilization", "storm"}));

  // SLO-violation seconds and time-to-recover from the ground truth.
  SimTime first_violation = -1.0;
  SimTime prev = kSurgeStart;
  for (const Sample& s : cpu->samples()) {
    if (s.time < kSurgeStart) continue;
    if (s.value > kCpuSlo) {
      out.violation_sec += s.time - prev;
      if (first_violation < 0.0) first_violation = s.time;
    }
    prev = s.time;
    out.cpu_trace.push_back(s.value);
  }
  if (first_violation >= 0.0) {
    for (const Sample& s : cpu->samples()) {
      if (s.time < first_violation) continue;
      TimeSeries hold = cpu->Window(s.time - 1.0, s.time + kRecoverHold);
      bool calm = true;
      for (const Sample& h : hold.samples()) calm &= h.value <= kCpuSlo;
      if (calm && s.time + kRecoverHold <= kHorizon) {
        out.recover_sec = s.time - kSurgeStart;
        out.recovered = true;
        break;
      }
    }
    if (!out.recovered) out.recover_sec = kHorizon - kSurgeStart;
  } else {
    out.recovered = true;  // Never violated: nothing to recover from.
  }

  out.drop_pct =
      100.0 *
      static_cast<double>(mf.flow->generator()->total_dropped()) /
      std::max<double>(
          1.0, static_cast<double>(mf.flow->generator()->total_generated()));
  FLOWER_ASSIGN_OR_RETURN(const core::LayerControlState* state,
                          mf.manager->GetState(core::Layer::kAnalytics));
  out.analytics = state->CountersSnapshot();
  out.analytics_actuations = state->actuations().size();
  out.injected_failures = chaos.stats().actuator_failures;
  out.injected_gaps = chaos.stats().metric_gaps;

  // Detection latency per fault window, from the anomaly log. The gap
  // shows up as sensor misses (unhardened) or stale hold-last reads
  // (hardened) — either stream counts as noticing it.
  const auto& anomaly_log = health.anomaly_log();
  out.anomaly_events = anomaly_log.size();
  out.detect_actuator_sec =
      DetectionLatency(anomaly_log, "loop.actuation_failures", kSurgeStart);
  double gap_start = kSurgeStart + 6.0 * kMinute;
  double via_miss =
      DetectionLatency(anomaly_log, "loop.sensor_misses", gap_start);
  double via_stale =
      DetectionLatency(anomaly_log, "loop.stale_sensor_reads", gap_start);
  out.detect_gap_sec = via_miss < 0.0
                           ? via_stale
                           : (via_stale < 0.0 ? via_miss
                                              : std::min(via_miss, via_stale));
  out.detect_spike_sec =
      DetectionLatency(anomaly_log, "loop.sensed_y", 110.0 * kMinute);

  // Time-to-attributed-cause: the anomaly bank says *something* is off;
  // the span chains say *what*. Walk the decision log from surge onset
  // and find the first analytics decision whose resolved chain contains
  // a failed actuation attempt — that is the moment a post-mortem query
  // (SpanIndex::EffectOf) pins the outage on the actuator.
  out.spans_recorded = telemetry.spans().total_started();
  obs::SpanIndex index(telemetry.spans());
  const obs::DecisionLog& log = telemetry.decisions();
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::ControlDecisionRecord& d = log.at(i);
    if (d.time < kSurgeStart || log.loop(d).name != "analytics" ||
        d.span_id == 0) {
      continue;
    }
    auto chain = index.EffectOf(d.span_id);
    if (!chain.ok()) continue;
    bool failed_attempt = false;
    for (const obs::SpanRecord* a : chain->actuations) {
      failed_attempt |=
          a->outcome ==
          static_cast<uint8_t>(obs::StepOutcome::kActuationFailed);
    }
    if (failed_attempt) {
      out.attribute_cause_sec = d.time - kSurgeStart;
      break;
    }
  }
  return out;
}

int Run() {
  // Dozens of injected actuation failures are the whole point here; the
  // per-failure warnings would drown the report.
  SetLogLevel(LogLevel::kError);
  bench::Header(
      "CHAOS  Fault-schedule recovery: hardened vs unhardened control");
  constexpr uint64_t kSeed = 11;

  auto unhardened = RunScenario(false, kSeed);
  auto hardened = RunScenario(true, kSeed);
  auto replay = RunScenario(true, kSeed);
  if (!unhardened.ok() || !hardened.ok() || !replay.ok()) {
    std::cerr << (unhardened.ok() ? (hardened.ok() ? replay : hardened)
                                  : unhardened)
                     .status()
              << "\n";
    return 1;
  }

  std::cout << "\nFlash crowd " << kBaseRate << " -> "
            << kBaseRate + kCrowdExtra << " rec/s at t=60min for 30min;\n"
            << "analytics resizes fail p=0.8 for 25min, metrics dark for "
               "6min,\nsensor spikes x4 for 2min. Same seed, same faults, "
               "both runs.\n\n";

  TablePrinter table({"config", "SLO-violation s", "recover s", "drops %",
                      "act fails", "retries", "retry ok", "brk trips",
                      "stale", "misses"});
  auto row = [&](const char* name, const RunResult& r) {
    table.AddRow({name, TablePrinter::Num(r.violation_sec, 0),
                  r.recovered ? TablePrinter::Num(r.recover_sec, 0)
                              : std::string(">").append(
                                    TablePrinter::Num(r.recover_sec, 0)),
                  TablePrinter::Num(r.drop_pct, 2),
                  std::to_string(r.analytics.actuation_failures),
                  std::to_string(r.analytics.actuation_retries),
                  std::to_string(r.analytics.retry_successes),
                  std::to_string(r.analytics.breaker_trips),
                  std::to_string(r.analytics.stale_sensor_reads),
                  std::to_string(r.analytics.sensor_misses)});
  };
  row("unhardened", *unhardened);
  row("hardened", *hardened);
  table.Print(std::cout);

  auto latency = [](double v) {
    return v < 0.0 ? std::string("never") : TablePrinter::Num(v, 0) + "s";
  };
  std::cout << "\nAnomaly detection latency (hardened run, budget "
            << kDetectBudget << "s = 2 control periods):\n"
            << "  actuator-failure window: " << latency(hardened->detect_actuator_sec)
            << "\n  metric-gap window:       " << latency(hardened->detect_gap_sec)
            << "\n  sensor-spike window:     " << latency(hardened->detect_spike_sec)
            << "\n  total anomaly events:    " << hardened->anomaly_events
            << "\n";

  std::cout << "\nTime-to-attributed-cause (first decision whose span "
               "chain holds a\nfailed actuation, via SpanIndex::EffectOf; "
            << hardened->spans_recorded << " spans recorded):\n"
            << "  unhardened: " << latency(unhardened->attribute_cause_sec)
            << "\n  hardened:   " << latency(hardened->attribute_cause_sec)
            << "\n";

  std::cout << "\nGround-truth analytics CPU from surge onset:\n";
  std::cout << AsciiChart(unhardened->cpu_trace, 6, 72,
                          "unhardened (85% = SLO line)");
  std::cout << AsciiChart(hardened->cpu_trace, 6, 72, "hardened");

  bool ok = true;
  ok &= bench::Verdict("fault schedule fired in both runs",
                       unhardened->injected_failures > 0 &&
                           hardened->injected_failures > 0 &&
                           hardened->injected_gaps > 0);
  ok &= bench::Verdict(
      "deterministic: same seed reproduces the identical run",
      hardened->Serialize() == replay->Serialize());
  ok &= bench::Verdict(
      "hardening recovered retries succeeded where raw actuation failed",
      hardened->analytics.retry_successes > 0);
  ok &= bench::Verdict(
      "hardened loop spends measurably less time in SLO violation",
      hardened->violation_sec < 0.8 * unhardened->violation_sec);
  ok &= bench::Verdict("hardened loop recovers sooner",
                       hardened->recovered &&
                           hardened->recover_sec < unhardened->recover_sec);
  auto detected = [&](double v) { return v >= 0.0 && v <= kDetectBudget; };
  ok &= bench::Verdict(
      "anomaly bank flags the actuator-failure window within 2 periods",
      detected(hardened->detect_actuator_sec));
  ok &= bench::Verdict(
      "anomaly bank flags the metric-gap window within 2 periods",
      detected(hardened->detect_gap_sec));
  ok &= bench::Verdict(
      "anomaly bank flags the sensor-spike window within 2 periods",
      detected(hardened->detect_spike_sec));
  ok &= bench::Verdict(
      "span chains attribute the actuator failure within 2 periods",
      detected(hardened->attribute_cause_sec) &&
          detected(unhardened->attribute_cause_sec));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main() { return flower::Run(); }
