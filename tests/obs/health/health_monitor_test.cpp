#include "obs/health/health_monitor.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace flower::obs::health {
namespace {

SloSpec TightUtilSpec(const char* layer) {
  SloSpec spec;
  spec.id = std::string(layer) + "/util";
  spec.layer = layer;
  spec.kind = SliKind::kGaugeBelow;
  spec.metric = {"cpu", {{"layer", layer}}};
  spec.threshold = 85.0;
  spec.objective = 0.9;
  spec.fast_window_sec = 300.0;
  spec.slow_window_sec = 600.0;
  spec.budget_window_sec = 1200.0;
  spec.burn_alert_threshold = 5.0;  // Reachable with a 0.9 objective.
  return spec;
}

TEST(HealthMonitorTest, RejectsDuplicateAndInvalidSlos) {
  Telemetry telemetry;
  HealthMonitor monitor(&telemetry);
  ASSERT_TRUE(monitor.AddSlo(TightUtilSpec("analytics")).ok());
  EXPECT_FALSE(monitor.AddSlo(TightUtilSpec("analytics")).ok());
  SloSpec bad = TightUtilSpec("storage");
  bad.objective = 2.0;
  EXPECT_FALSE(monitor.AddSlo(bad).ok());
  // NaN fails every numeric check, so it never reaches a window size.
  const double nan = std::nan("");
  for (double SloSpec::*field :
       {&SloSpec::fast_window_sec, &SloSpec::slow_window_sec,
        &SloSpec::budget_window_sec, &SloSpec::threshold,
        &SloSpec::objective, &SloSpec::burn_alert_threshold}) {
    SloSpec spec = TightUtilSpec("storage");
    spec.*field = nan;
    EXPECT_EQ(monitor.AddSlo(spec).code(), StatusCode::kInvalidArgument);
  }
  SloSpec endless = TightUtilSpec("storage");
  endless.budget_window_sec = HUGE_VAL;
  EXPECT_EQ(monitor.AddSlo(endless).code(), StatusCode::kInvalidArgument);
}

TEST(HealthMonitorTest, PublishesSloGaugesIntoTheRegistry) {
  Telemetry telemetry;
  HealthMonitor monitor(&telemetry);
  ASSERT_TRUE(monitor.AddSlo(TightUtilSpec("analytics")).ok());
  Gauge* cpu = telemetry.metrics().GetGauge("cpu", {{"layer", "analytics"}});
  cpu->Set(50.0);
  for (int i = 1; i <= 10; ++i) monitor.Evaluate(60.0 * i);

  // The monitor's own state flows through the same registry every other
  // instrument uses.
  MetricsSnapshot snap = telemetry.metrics().Snapshot();
  const GaugeSample* good = FindGauge(
      snap, {"slo.good_fraction",
             {{"slo", "analytics/util"}, {"layer", "analytics"}}});
  ASSERT_NE(good, nullptr);
  EXPECT_DOUBLE_EQ(good->value, 1.0);
  const GaugeSample* breached = FindGauge(
      snap,
      {"slo.breached", {{"slo", "analytics/util"}, {"layer", "analytics"}}});
  ASSERT_NE(breached, nullptr);
  EXPECT_DOUBLE_EQ(breached->value, 0.0);
}

TEST(HealthMonitorTest, BreachReportAndMaskLifecycle) {
  Telemetry telemetry;
  HealthMonitorConfig config;
  config.eval_period_sec = 60.0;
  HealthMonitor monitor(&telemetry, config);
  ASSERT_TRUE(monitor.AddSlo(TightUtilSpec("analytics")).ok());

  Gauge* cpu = telemetry.metrics().GetGauge("cpu", {{"layer", "analytics"}});
  cpu->Set(50.0);
  SimTime t = 0.0;
  for (int i = 0; i < 20; ++i) monitor.Evaluate(t += 60.0);
  EXPECT_TRUE(monitor.ActiveAlerts().empty());
  EXPECT_EQ(monitor.MaskFor("analytics"), 0);

  // Saturate until the multi-window alert fires.
  cpu->Set(99.0);
  int fired_tick = -1;
  for (int i = 0; i < 15 && fired_tick < 0; ++i) {
    monitor.Evaluate(t += 60.0);
    if (!monitor.ActiveAlerts().empty()) fired_tick = i;
  }
  ASSERT_GE(fired_tick, 0);
  EXPECT_EQ(monitor.ActiveAlerts().front(), "analytics/util");
  EXPECT_EQ(monitor.MaskFor("analytics") & kHealthLayerBreach,
            kHealthLayerBreach);
  EXPECT_EQ(monitor.MaskFor("storage"), 0);  // Layer SLO, not flow-wide.
  ASSERT_EQ(monitor.reports().size(), 1u);   // Report on the alert edge.
  EXPECT_EQ(monitor.reports().front().slo.id, "analytics/util");

  // Recover: alert clears, mask drops.
  cpu->Set(40.0);
  for (int i = 0; i < 10; ++i) monitor.Evaluate(t += 60.0);
  EXPECT_TRUE(monitor.ActiveAlerts().empty());
  EXPECT_EQ(monitor.MaskFor("analytics") & kHealthLayerBreach, 0);
}

TEST(HealthMonitorTest, FlowWideSloSetsFlowBitForEveryLayer) {
  Telemetry telemetry;
  HealthMonitor monitor(&telemetry);
  SloSpec flow = TightUtilSpec("analytics");
  flow.id = "flow/util";
  flow.layer = "";  // Flow-wide.
  ASSERT_TRUE(monitor.AddSlo(flow).ok());
  Gauge* cpu = telemetry.metrics().GetGauge("cpu", {{"layer", "analytics"}});
  cpu->Set(99.0);
  SimTime t = 0.0;
  for (int i = 0; i < 20; ++i) monitor.Evaluate(t += 60.0);
  ASSERT_FALSE(monitor.ActiveAlerts().empty());
  EXPECT_EQ(monitor.MaskFor("analytics") & kHealthFlowBreach,
            kHealthFlowBreach);
  EXPECT_EQ(monitor.MaskFor("storage") & kHealthFlowBreach,
            kHealthFlowBreach);
}

TEST(HealthMonitorTest, AnomalyEventsAreLoggedCountedAndBounded) {
  Telemetry telemetry;
  HealthMonitorConfig config;
  config.max_anomaly_events = 3;
  HealthMonitor monitor(&telemetry, config);
  AnomalyConfig detector;
  detector.warmup_samples = 4;
  ASSERT_TRUE(monitor
                  .Watch(AnomalyBank::Source::kGauge, {"sig", {}},
                         "analytics", detector)
                  .ok());
  Gauge* sig = telemetry.metrics().GetGauge("sig");
  SimTime t = 0.0;
  for (int i = 0; i < 20; ++i) {
    sig->Set(10.0 + 0.1 * (i % 3));
    monitor.Evaluate(t += 60.0);
  }
  ASSERT_TRUE(monitor.anomaly_log().empty());

  // Alternate spikes: each flagged tick appends one event; the log
  // keeps only the newest max_anomaly_events.
  for (int i = 0; i < 10; ++i) {
    sig->Set(i % 2 == 0 ? 500.0 + i : 10.0);
    monitor.Evaluate(t += 60.0);
  }
  EXPECT_LE(monitor.anomaly_log().size(), 3u);
  EXPECT_FALSE(monitor.anomaly_log().empty());
  // The mask carries the anomaly bit for the stream's layer while the
  // latest tick is anomalous.
  MetricsSnapshot snap = telemetry.metrics().Snapshot();
  const CounterSample* counted = FindCounter(snap, {"health.anomalies", {}});
  ASSERT_NE(counted, nullptr);
  EXPECT_GE(counted->value, monitor.anomaly_log().size());
}

TEST(HealthMonitorTest, JsonlSerializationIsStable) {
  Telemetry telemetry;
  HealthMonitor monitor(&telemetry);
  ASSERT_TRUE(monitor.AddSlo(TightUtilSpec("analytics")).ok());
  Gauge* cpu = telemetry.metrics().GetGauge("cpu", {{"layer", "analytics"}});
  cpu->Set(99.0);
  SimTime t = 0.0;
  for (int i = 0; i < 20; ++i) monitor.Evaluate(t += 60.0);

  std::ostringstream a, b;
  monitor.WriteJsonl(a);
  monitor.WriteJsonl(b);
  EXPECT_EQ(a.str(), b.str());  // Pure serialization, no hidden state.
  EXPECT_NE(a.str().find("\"type\":\"slo\""), std::string::npos);
  EXPECT_NE(a.str().find("\"type\":\"report\""), std::string::npos);
  EXPECT_NE(a.str().find("\"id\":\"analytics/util\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Recorded-trace regression: the health trajectory over all three SLI
// kinds plus an anomaly watch must match a committed golden file byte
// for byte. The golden was recorded while a full-registry scan still
// fed the monitor and agreed with the tracked snapshot tick for tick,
// so it pins the tracked feed to the raw-scan semantics.

// Replays a deterministic 4-hour recorded trace (saturation burst at
// hour 1, error burst at hour 2, latency regression at hour 3, gauge
// spikes threaded throughout) into `monitor`, appending one formatted
// line per tick capturing everything Evaluate publishes.
std::string ReplayRecordedTrace(HealthMonitor* monitor,
                                Telemetry* telemetry) {
  Gauge* cpu =
      telemetry->metrics().GetGauge("cpu", {{"layer", "analytics"}});
  Counter* errors = telemetry->metrics().GetCounter("requests.errors");
  Counter* total = telemetry->metrics().GetCounter("requests.total");
  Histogram* latency = telemetry->metrics().GetHistogram("latency_ms");
  Gauge* sig = telemetry->metrics().GetGauge("sig");

  std::ostringstream trajectory;
  for (int i = 1; i <= 240; ++i) {
    double t = 60.0 * i;
    bool cpu_burst = i > 60 && i <= 90;
    cpu->Set(cpu_burst ? 99.0 : 50.0 + 10.0 * std::sin(0.1 * i));
    bool error_burst = i > 120 && i <= 150;
    total->Increment(100);
    errors->Increment(error_burst ? 40 : 1);
    bool slow = i > 180 && i <= 210;
    for (int s = 0; s < 5; ++s) {
      latency->Record(slow ? 900.0 + 10.0 * s : 20.0 + (i + s) % 7);
    }
    sig->Set(i % 17 == 0 ? 400.0 : 10.0 + 0.1 * (i % 5));
    monitor->Evaluate(t);

    trajectory << "t=" << t;
    for (const SloStatus& s : monitor->Statuses()) {
      trajectory << " " << s.id << ":gf=" << s.good_fraction
                 << ",bf=" << s.burn_fast << ",bs=" << s.burn_slow
                 << ",budget=" << s.budget_consumed
                 << ",breached=" << s.breached
                 << ",since=" << s.breach_since
                 << ",alerts=" << s.alerts_fired;
    }
    trajectory << " active=";
    for (const std::string& id : monitor->ActiveAlerts()) {
      trajectory << id << ";";
    }
    for (const char* layer : {"ingestion", "analytics", "storage"}) {
      trajectory << " mask(" << layer
                 << ")=" << static_cast<int>(monitor->MaskFor(layer));
    }
    trajectory << " anomalies=" << monitor->anomaly_log().size()
               << " reports=" << monitor->reports().size() << "\n";
  }
  monitor->WriteJsonl(trajectory);
  return trajectory.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(HealthMonitorTest, RecordedTraceMatchesGolden) {
  Telemetry telemetry;
  HealthMonitorConfig config;
  config.eval_period_sec = 60.0;
  HealthMonitor monitor(&telemetry, config);
  ASSERT_TRUE(monitor.AddSlo(TightUtilSpec("analytics")).ok());

  SloSpec availability;
  availability.id = "flow/availability";
  availability.layer = "";
  availability.kind = SliKind::kCounterRatio;
  availability.metric = {"requests.errors", {}};
  availability.total = {"requests.total", {}};
  availability.objective = 0.95;
  availability.fast_window_sec = 300.0;
  availability.slow_window_sec = 1800.0;
  availability.budget_window_sec = 7200.0;
  availability.burn_alert_threshold = 4.0;
  ASSERT_TRUE(monitor.AddSlo(availability).ok());

  SloSpec lat;
  lat.id = "storage/latency";
  lat.layer = "storage";
  lat.kind = SliKind::kHistogramBelow;
  lat.metric = {"latency_ms", {}};
  lat.threshold = 500.0;
  lat.objective = 0.95;
  lat.fast_window_sec = 300.0;
  lat.slow_window_sec = 1800.0;
  lat.budget_window_sec = 7200.0;
  lat.burn_alert_threshold = 4.0;
  ASSERT_TRUE(monitor.AddSlo(lat).ok());

  AnomalyConfig detector;
  detector.warmup_samples = 8;
  ASSERT_TRUE(monitor
                  .Watch(AnomalyBank::Source::kGauge, {"sig", {}},
                         "analytics", detector)
                  .ok());
  std::string trajectory = ReplayRecordedTrace(&monitor, &telemetry);

  const std::string golden = ReadFile(std::string(FLOWER_HEALTH_TESTDATA) +
                                      "/recorded_trace.golden");
  ASSERT_FALSE(golden.empty()) << "missing recorded_trace.golden";
  if (trajectory != golden) {
    std::istringstream got(trajectory);
    std::istringstream want(golden);
    std::string got_line;
    std::string want_line;
    for (int line = 1;; ++line) {
      bool more_got = static_cast<bool>(std::getline(got, got_line));
      bool more_want = static_cast<bool>(std::getline(want, want_line));
      if (!more_got && !more_want) break;
      if (!more_got || !more_want || got_line != want_line) {
        ADD_FAILURE() << "trajectory differs from the golden at line "
                      << line << "\n  got:  " << got_line
                      << "\n  want: " << want_line;
        break;
      }
    }
  }
  // The trace actually exercised alert transitions, not 240 quiet
  // ticks: every SLO must have fired at least once.
  EXPECT_NE(trajectory.find("analytics/util;"), std::string::npos);
  EXPECT_NE(trajectory.find("flow/availability;"), std::string::npos);
  EXPECT_NE(trajectory.find("storage/latency;"), std::string::npos);
}

TEST(MakeDefaultSloPackTest, CoversAllThreeLayers) {
  std::vector<SloSpec> pack = MakeDefaultSloPack(90.0, 0.95);
  ASSERT_EQ(pack.size(), 3u);
  for (const SloSpec& spec : pack) {
    EXPECT_TRUE(ValidateSloSpec(spec).ok()) << spec.id;
    EXPECT_EQ(spec.metric.name, "loop.sensed_y");
    EXPECT_DOUBLE_EQ(spec.threshold, 90.0);
  }
  EXPECT_EQ(pack[0].id, "ingestion/utilization");
}

}  // namespace
}  // namespace flower::obs::health
