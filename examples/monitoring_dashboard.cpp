// Cross-platform monitoring (paper §3.4): run the managed flow and
// render the all-in-one-place dashboard at regular intervals, with
// CloudWatch-style alarms on every layer feeding a consolidated event
// log — the text equivalent of watching Fig. 6's UI live.
//
//   $ ./build/examples/monitoring_dashboard

#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "cloudwatch/alarm.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/dependency_analyzer.h"
#include "core/flow_builder.h"
#include "core/monitor.h"
#include "obs/health/health_monitor.h"
#include "obs/telemetry.h"
#include "sim/fault_injector.h"

using namespace flower;

namespace {

std::string Labels(const obs::LabelSet& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += " ";
    out += k + "=" + v;
  }
  return out;
}

std::string Num(double v, int digits = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

// The live-style instrument table: one row per registered counter,
// gauge, and histogram, straight from a registry snapshot.
void RenderMetricsTable(const obs::Telemetry& telemetry, std::ostream& os) {
  obs::MetricsSnapshot snap = telemetry.metrics().Snapshot();
  TablePrinter table({"instrument", "labels", "value"});
  for (const obs::CounterSample& c : snap.counters) {
    table.AddRow({c.name, Labels(c.labels), std::to_string(c.value)});
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    table.AddRow({g.name, Labels(g.labels), Num(g.value)});
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    table.AddRow({h.name, Labels(h.labels),
                  "n=" + std::to_string(h.count) + " p50=" + Num(h.p50) +
                      " p99=" + Num(h.p99) + " max=" + Num(h.max)});
  }
  table.Print(os);
}

}  // namespace

int main() {
  obs::Telemetry telemetry;
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;

  // A bursty workload that will trip the alarms.
  auto arrival = std::make_shared<workload::CompositeArrival>();
  arrival->Add(std::make_shared<workload::ConstantArrival>(500.0));
  arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
      0.0, 2500.0, 40 * kMinute, 20 * kMinute, 2 * kMinute));

  // Inject some weather so the resilience counters have something to
  // show: analytics resizes fail transiently during the flash crowd,
  // and the storage metrics drop out for a while.
  sim::FaultInjector chaos(&sim, /*seed=*/3);
  chaos.FailActuator("analytics", 40 * kMinute, 55 * kMinute, 0.7);
  chaos.DropMetrics("storage", 70 * kMinute, 80 * kMinute);

  core::ResiliencePolicy resilience;
  resilience.retry.max_retries = 3;
  resilience.retry.initial_backoff_sec = 5.0;
  resilience.breaker.failure_threshold = 5;
  resilience.breaker.cooldown_sec = 10 * kMinute;
  resilience.sensor.on_miss = core::SensorMissPolicy::kHoldLastValue;
  resilience.sensor.max_hold_sec = 15 * kMinute;

  auto managed = core::FlowBuilder()
                     .WithWorkload(arrival)
                     .WithSeed(3)
                     .WithResilience(resilience)
                     .WithFaultInjector(&chaos)
                     .WithTelemetry(&telemetry)
                     .Build(&sim, &metrics);
  if (!managed.ok()) {
    std::cerr << managed.status() << "\n";
    return 1;
  }

  // Alarms across all three platforms, consolidated in one event log.
  std::vector<cloudwatch::Alarm> alarms;
  auto add_alarm = [&](const char* name, cloudwatch::MetricId id,
                       double threshold, cloudwatch::Comparison cmp) {
    cloudwatch::AlarmConfig cfg;
    cfg.name = name;
    cfg.metric = std::move(id);
    cfg.threshold = threshold;
    cfg.comparison = cmp;
    cfg.period = 60.0;
    cfg.evaluation_periods = 2;
    alarms.emplace_back(cfg);
  };
  add_alarm("storm-cpu-high", {"Flower/Storm", "CpuUtilization", "storm"},
            85.0, cloudwatch::Comparison::kGreaterThan);
  add_alarm("kinesis-throttling",
            {"Flower/Kinesis", "ThrottledRecords", "clickstream"}, 0.5,
            cloudwatch::Comparison::kGreaterThan);
  add_alarm("dynamo-overuse",
            {"Flower/DynamoDB", "WriteUtilization", "aggregates"}, 90.0,
            cloudwatch::Comparison::kGreaterThan);
  for (cloudwatch::Alarm& alarm : alarms) {
    alarm.set_on_state_change([&](const cloudwatch::Alarm& a,
                                  cloudwatch::AlarmState old_state,
                                  cloudwatch::AlarmState new_state) {
      std::cout << "[t=" << sim.Now() / kMinute << "min] ALARM '"
                << a.config().name << "': "
                << cloudwatch::AlarmStateToString(old_state) << " -> "
                << cloudwatch::AlarmStateToString(new_state) << "\n";
    });
  }
  (void)sim.SchedulePeriodic(2 * kMinute, kMinute, [&] {
    for (cloudwatch::Alarm& alarm : alarms) alarm.Evaluate(metrics, sim.Now());
    return true;
  });

  // Flow-health layer next to the raw alarms: utilization SLOs per
  // loop, anomaly detectors on the sensed signals and failure rates,
  // and Eq. 1 dependency edges for root-cause attribution.
  obs::health::HealthMonitorConfig health_cfg;
  health_cfg.eval_period_sec = kMinute;
  obs::health::HealthMonitor flow_health(&telemetry, health_cfg);
  for (const obs::health::SloSpec& spec :
       obs::health::MakeDefaultSloPack(/*util_threshold=*/90.0,
                                       /*objective=*/0.95)) {
    if (auto st = flow_health.AddSlo(spec); !st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
  }
  for (const char* layer : {"ingestion", "analytics", "storage"}) {
    (void)flow_health.Watch(
        obs::health::AnomalyBank::Source::kGauge,
        {"loop.sensed_y", {{"loop", layer}, {"layer", layer}}}, layer);
    (void)flow_health.Watch(
        obs::health::AnomalyBank::Source::kCounterRate,
        {"loop.actuation_failures", {{"loop", layer}, {"layer", layer}}},
        layer);
  }
  managed->manager->SetHealthAnnotator(
      [&](const std::string& layer, SimTime) {
        return flow_health.MaskFor(layer);
      });
  (void)sim.SchedulePeriodic(kMinute, kMinute, [&] {
    flow_health.Evaluate(sim.Now());
    return true;
  });
  // Re-learn Eq. 1 edges over the trailing hour so attribution follows
  // the load as it shifts.
  core::DependencyAnalyzer analyzer;
  const std::vector<core::LayerMetric> layer_metrics = {
      {core::Layer::kIngestion,
       {"Flower/Kinesis", "IncomingRecords", "clickstream"}},
      {core::Layer::kAnalytics, {"Flower/Storm", "CpuUtilization", "storm"}},
      {core::Layer::kStorage,
       {"Flower/DynamoDB", "ConsumedWriteCapacityUnits", "aggregates"}},
  };
  (void)sim.SchedulePeriodic(kHour, 30 * kMinute, [&] {
    flow_health.SetDependencyEdges(core::ToHealthEdges(analyzer.AnalyzeAll(
        metrics, layer_metrics, sim.Now() - kHour, sim.Now())));
    return true;
  });

  core::CrossPlatformMonitor monitor(&metrics);
  monitor.Watch({"Flower/Kinesis", "WriteUtilization", "clickstream"});
  monitor.Watch({"Flower/Kinesis", "ShardCount", "clickstream"});
  monitor.Watch({"Flower/Storm", "CpuUtilization", "storm"});
  monitor.Watch({"Flower/Storm", "WorkerCount", "storm"});
  monitor.Watch({"Flower/Storm", "CompleteLatency", "storm"});
  monitor.Watch({"Flower/DynamoDB", "WriteUtilization", "aggregates"});

  // Render the consolidated dashboard every 30 simulated minutes, with
  // the telemetry instrument table next to the metric charts — the text
  // equivalent of the paper's live monitoring pane.
  (void)sim.SchedulePeriodic(30 * kMinute, 30 * kMinute, [&] {
    monitor.RenderDashboard(std::cout, sim.Now() - 30 * kMinute, sim.Now());
    std::cout << "Telemetry instruments @ t=" << sim.Now() / kMinute
              << "min:\n";
    RenderMetricsTable(telemetry, std::cout);
    return sim.Now() < 2 * kHour;
  });

  sim.RunUntil(2 * kHour);

  std::cout << "\nFinal hour with trend charts:\n";
  monitor.RenderDashboard(std::cout, kHour, 2 * kHour, /*with_charts=*/true);

  // Control-loop health: the resilience counters next to the metric
  // dashboards, one row per loop.
  std::cout << "\nControl-loop health:\n";
  TablePrinter health({"loop", "steps", "misses", "stale", "act fails",
                       "retries", "retry ok", "brk trips", "brk skips",
                       "breaker"});
  for (const std::string& name : managed->manager->LoopNames()) {
    auto state = managed->manager->GetState(name);
    if (!state.ok()) continue;
    const core::LayerControlState& s = **state;
    health.AddRow({name, std::to_string(s.actuations().size()),
                   std::to_string(s.sensor_misses()),
                   std::to_string(s.stale_sensor_reads()),
                   std::to_string(s.actuation_failures()),
                   std::to_string(s.actuation_retries()),
                   std::to_string(s.retry_successes()),
                   std::to_string(s.breaker_trips()),
                   std::to_string(s.breaker_skipped_steps()),
                   s.breaker_open ? "OPEN" : "closed"});
  }
  health.Print(std::cout);

  // Flow-health panel: the SLO engine's view of the same run — burn
  // rates, budget spend, fired alerts, and (when something broke) the
  // ranked root-cause attribution.
  std::cout << "\nFlow health (" << flow_health.evaluations()
            << " evaluations):\n";
  TablePrinter slo_table({"slo", "layer", "good", "burn 5m", "burn 1h",
                          "budget", "state", "alerts"});
  for (const obs::health::SloStatus& s : flow_health.Statuses()) {
    slo_table.AddRow({s.id, s.layer, Num(s.good_fraction, 3),
                      Num(s.burn_fast), Num(s.burn_slow),
                      Num(s.budget_consumed * 100.0, 1) + "%",
                      s.breached ? "BREACHED" : "ok",
                      std::to_string(s.alerts_fired)});
  }
  slo_table.Print(std::cout);

  const auto& anomalies = flow_health.anomaly_log();
  std::cout << "Anomalies flagged: " << anomalies.size();
  if (!anomalies.empty()) {
    const obs::health::AnomalyEvent& last = anomalies.back();
    std::cout << " (last: " << last.stream << " "
              << obs::health::AnomalyKindToString(last.kind) << " @ t="
              << Num(last.time / kMinute, 0) << "min, score="
              << Num(last.score, 1) << ")";
  }
  std::cout << "\n";
  if (flow_health.reports().empty()) {
    std::cout << "No SLO breach reports — flow healthy.\n";
  } else {
    const obs::health::HealthReport& report = flow_health.reports().back();
    std::cout << "Latest health report (t="
              << Num(report.time / kMinute, 0) << "min): " << report.summary
              << "\n";
    TablePrinter ranking({"rank", "layer", "score", "top evidence"});
    int rank = 1;
    for (const obs::health::LayerAttribution& a : report.ranking) {
      ranking.AddRow({std::to_string(rank++), a.layer, Num(a.score, 1),
                      a.evidence.empty() ? "" : a.evidence.front().detail});
    }
    ranking.Print(std::cout);
  }

  // Tail of the control-decision event log: the structured record of
  // what each loop sensed and decided, newest last.
  const obs::DecisionLog& decisions = telemetry.decisions();
  constexpr size_t kTail = 8;
  size_t first = decisions.size() > kTail ? decisions.size() - kTail : 0;
  std::cout << "\nLast " << decisions.size() - first
            << " control decisions (of " << decisions.size() << "):\n";
  TablePrinter tail({"t min", "loop", "law", "y", "y_r", "gain", "u",
                     "outcome", "faults"});
  for (size_t i = first; i < decisions.size(); ++i) {
    const obs::ControlDecisionRecord& d = decisions.at(i);
    const obs::LoopInfo& loop = decisions.loop(d);
    tail.AddRow({Num(d.time / kMinute, 0), loop.name, loop.law,
                 Num(d.sensed_y, 1),
                 Num(d.reference, 1), Num(d.gain, 3), Num(d.clamped_u, 1),
                 obs::StepOutcomeToString(d.outcome),
                 std::to_string(static_cast<int>(d.fault_mask))});
  }
  tail.Print(std::cout);

  std::cout << "\nInjected faults: "
            << chaos.stats().actuator_failures << " actuation failures, "
            << chaos.stats().metric_gaps << " metric gaps\n";
  return 0;
}
