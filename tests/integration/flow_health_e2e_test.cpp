// End-to-end flow-health scenario (the PR's acceptance script): rising
// Kinesis arrivals push DynamoDB write demand past a starved capacity
// cap; throttled writes trip the flow SLO's fast-burn alert, and the
// resulting HealthReport must rank storage first, with the learned
// Eq. 1 ingestion→storage edge cited as the causal story.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloudwatch/metric_store.h"
#include "core/dependency_analyzer.h"
#include "obs/health/health_monitor.h"
#include "obs/telemetry.h"

namespace flower {
namespace {

using obs::health::HealthMonitor;
using obs::health::HealthReport;
using obs::health::SliKind;
using obs::health::SloSpec;
using obs::health::SloStatus;

constexpr double kTick = 60.0;
constexpr SimTime kLearnEnd = 3600.0;    // Healthy ramp: learn Eq. 1 here.
constexpr SimTime kStarveAt = 3600.0;    // WCU capacity yanked from here on.
constexpr SimTime kHorizon = 7200.0;
constexpr double kHealthyWcuCap = 800.0;
constexpr double kStarvedWcuCap = 500.0;  // Scripted starvation ceiling.
constexpr double kWcuPerRecord = 0.4;

// Arrivals climb all run long; demand reaches the healthy cap exactly
// at kStarveAt (2000 rec/s * 0.4 = 800 WCU) and keeps rising while the
// scripted starvation yanks capacity down to 500.
double ArrivalRate(SimTime t) { return 500.0 + t * (1500.0 / 3600.0); }

double WcuCap(SimTime t) {
  return t < kStarveAt ? kHealthyWcuCap : kStarvedWcuCap;
}

// Drives the scripted scenario and returns the assertions' inputs.
// Everything is a pure function of the tick index — no RNG, no wall
// clock.
struct ScenarioResult {
  SloStatus flow_slo;
  std::vector<HealthReport> reports;
  std::vector<std::string> active_alerts;
};

ScenarioResult RunScenario() {
  obs::Telemetry telemetry;
  cloudwatch::MetricStore store;

  HealthMonitor monitor(&telemetry, kTick);

  // The flow objective: 99% of writes unthrottled, fast window 5 min.
  SloSpec slo;
  slo.id = "flow/write-availability";
  slo.layer = "storage";
  slo.kind = SliKind::kCounterRatio;
  slo.metric = {"storage.writes_throttled", {}};
  slo.total = {"storage.writes_total", {}};
  slo.objective = 0.99;
  slo.fast_window_sec = 300.0;
  slo.slow_window_sec = 900.0;
  slo.budget_window_sec = 7200.0;
  EXPECT_TRUE(monitor.AddSlo(slo).ok());

  // Watched streams: one per layer.
  for (const char* layer : {"ingestion", "analytics", "storage"}) {
    EXPECT_TRUE(monitor
                    .Watch(obs::health::AnomalyBank::Source::kGauge,
                           {"loop.sensed_y", {{"loop", layer}}}, layer)
                    .ok());
  }
  EXPECT_TRUE(monitor
                  .Watch(obs::health::AnomalyBank::Source::kCounterRate,
                         {"storage.writes_throttled", {}}, "storage")
                  .ok());

  obs::MetricsRegistry& reg = telemetry.metrics();
  obs::Counter* writes_total = reg.GetCounter("storage.writes_total");
  obs::Counter* writes_throttled =
      reg.GetCounter("storage.writes_throttled");
  obs::Gauge* y_ingestion =
      reg.GetGauge("loop.sensed_y", {{"loop", "ingestion"}});
  obs::Gauge* y_analytics =
      reg.GetGauge("loop.sensed_y", {{"loop", "analytics"}});
  obs::Gauge* y_storage =
      reg.GetGauge("loop.sensed_y", {{"loop", "storage"}});

  const cloudwatch::MetricId kArrivalsId{"Flower/Kinesis",
                                         "IncomingRecords", "clickstream"};
  const cloudwatch::MetricId kWcuId{
      "Flower/DynamoDB", "ConsumedWriteCapacityUnits", "aggregates"};

  bool edges_learned = false;
  core::DependencyAnalyzer analyzer;
  const char* const kLayers[] = {"ingestion", "analytics", "storage"};
  obs::LoopId loop_ids[3];
  for (int i = 0; i < 3; ++i) {
    auto id = telemetry.decisions().loops().Register(
        {kLayers[i], kLayers[i], "scripted"});
    EXPECT_TRUE(id.ok());
    loop_ids[i] = id.ok() ? *id : 0;
  }

  for (SimTime t = kTick; t <= kHorizon; t += kTick) {
    double arrivals = ArrivalRate(t);
    double cap = WcuCap(t);
    double demand_wcu = arrivals * kWcuPerRecord;
    double consumed_wcu = std::min(demand_wcu, cap);

    // Platform metrics (the Eq. 1 learning substrate).
    EXPECT_TRUE(store.Put(kArrivalsId, t, arrivals).ok());
    EXPECT_TRUE(store.Put(kWcuId, t, consumed_wcu).ok());

    // Write traffic: everything past the cap throttles.
    double writes = arrivals * kTick;
    double throttled =
        demand_wcu > cap ? writes * (demand_wcu - cap) / demand_wcu : 0.0;
    writes_total->Increment(static_cast<uint64_t>(writes));
    writes_throttled->Increment(static_cast<uint64_t>(throttled));

    // Loop telemetry: utilizations plus one decision record per layer.
    // Ingestion and analytics hold flat (their loops keep up all run);
    // storage saturates (raw demand above the clamp) once starved.
    y_ingestion->Set(50.0);
    y_analytics->Set(40.0);
    y_storage->Set(100.0 * consumed_wcu / kHealthyWcuCap);
    for (int i = 0; i < 3; ++i) {
      obs::ControlDecisionRecord rec;
      rec.time = t;
      rec.loop = loop_ids[i];
      rec.outcome = obs::StepOutcome::kActuated;
      if (std::string(kLayers[i]) == "storage") {
        rec.raw_u = demand_wcu;
        rec.clamped_u = consumed_wcu;
      } else {
        rec.raw_u = 10.0;
        rec.clamped_u = 10.0;
      }
      telemetry.decisions().Append(rec);
    }

    // Learn the dependency graph from the healthy ramp, exactly once.
    if (!edges_learned && t >= kLearnEnd) {
      std::vector<core::Dependency> deps = analyzer.AnalyzeAll(
          store,
          {{core::Layer::kIngestion, kArrivalsId},
           {core::Layer::kStorage, kWcuId}},
          0.0, kLearnEnd);
      EXPECT_FALSE(deps.empty());
      monitor.SetDependencyEdges(core::ToHealthEdges(deps));
      edges_learned = true;
    }

    monitor.Evaluate(t);
  }
  EXPECT_TRUE(edges_learned);

  ScenarioResult out;
  out.flow_slo = monitor.Statuses().front();
  out.reports.assign(monitor.reports().begin(), monitor.reports().end());
  out.active_alerts = monitor.ActiveAlerts();
  return out;
}

TEST(FlowHealthE2eTest, StarvationTripsSloAndStorageRanksFirst) {
  ScenarioResult r = RunScenario();

  // The alert fired and never cleared (starvation persists to horizon).
  const SloStatus& slo = r.flow_slo;
  EXPECT_TRUE(slo.breached);
  EXPECT_GE(slo.alerts_fired, 1u);
  ASSERT_FALSE(r.active_alerts.empty());
  EXPECT_EQ(r.active_alerts.front(), "flow/write-availability");

  // Fast-burn alert within two evaluation (fast) windows of onset.
  EXPECT_GE(slo.breach_since, kStarveAt);
  EXPECT_LE(slo.breach_since, kStarveAt + 2.0 * 300.0);
  EXPECT_GT(slo.burn_fast, 14.4);

  // The report ranks storage first, and its evidence cites both the
  // saturation symptom and the learned Eq. 1 edge from ingestion.
  ASSERT_FALSE(r.reports.empty());
  const HealthReport& report = r.reports.front();
  ASSERT_FALSE(report.ranking.empty());
  EXPECT_EQ(report.ranking.front().layer, "storage");
  bool saw_saturation = false;
  bool saw_dependency = false;
  for (const auto& ev : report.ranking.front().evidence) {
    if (ev.kind == "saturation") saw_saturation = true;
    if (ev.kind == "dependency") {
      saw_dependency = true;
      EXPECT_NE(ev.detail.find("Eq. 1"), std::string::npos);
      EXPECT_NE(ev.detail.find("ingestion"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_saturation);
  EXPECT_TRUE(saw_dependency);
  EXPECT_NE(report.summary.find("storage"), std::string::npos);
}

}  // namespace
}  // namespace flower
