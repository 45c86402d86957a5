#include "obs/health/health_monitor.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  HealthMonitor monitor(&telemetry, 60.0);
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
  HealthMonitor monitor(&telemetry);
  // 1,000 flat streams that spike on five alternate ticks each: 5,000
  // events, past the log's 4,096-event cap. A flat stream's scale sits
  // at its floor, so every spike is flagged and no return to the
  // baseline is.
  constexpr int kStreams = 1000;
  std::vector<Gauge*> sigs;
  std::vector<std::string> names;
  for (int i = 0; i < kStreams; ++i) {
    MetricSelector sel{"sig", {{"i", std::to_string(i)}}};
    ASSERT_TRUE(
        monitor.Watch(AnomalyBank::Source::kGauge, sel, "analytics").ok());
    sigs.push_back(telemetry.metrics().GetGauge(sel.name, sel.labels));
    names.push_back(sel.ToString());
  }
  SimTime t = 0.0;
  for (int tick = 0; tick < 10; ++tick) {
    for (Gauge* g : sigs) g->Set(10.0);
    monitor.Evaluate(t += 60.0);
  }
  ASSERT_TRUE(monitor.anomaly_log().empty());
  const SimTime first_spike = t + 60.0;
  for (int tick = 0; tick < 10; ++tick) {
    for (Gauge* g : sigs) g->Set(tick % 2 == 0 ? 500.0 : 10.0);
    monitor.Evaluate(t += 60.0);
    // The mask carries the anomaly bit for the streams' layer while the
    // latest tick is anomalous.
    EXPECT_EQ(monitor.MaskFor("analytics"),
              tick % 2 == 0 ? kHealthAnomaly : 0);
  }

  // Every event is counted; the log keeps the newest 4,096, so the
  // first spike tick's first 904 streams fell off its front.
  MetricsSnapshot snap = telemetry.metrics().Snapshot();
  const CounterSample* counted = FindCounter(snap, {"health.anomalies", {}});
  ASSERT_NE(counted, nullptr);
  EXPECT_EQ(counted->value, 5u * kStreams);
  ASSERT_EQ(monitor.anomaly_log().size(), 4096u);
  EXPECT_EQ(monitor.anomaly_log().front().time, first_spike);
  EXPECT_EQ(monitor.anomaly_log().front().stream, names[904]);
  EXPECT_EQ(monitor.anomaly_log().back().time, first_spike + 8 * 60.0);
  EXPECT_EQ(monitor.anomaly_log().back().stream, names[kStreams - 1]);
  for (const AnomalyEvent& ev : monitor.anomaly_log()) {
    EXPECT_EQ(ev.kind, AnomalyKind::kSpike);
  }
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
  HealthMonitor monitor(&telemetry, 60.0);
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

  ASSERT_TRUE(
      monitor.Watch(AnomalyBank::Source::kGauge, {"sig", {}}, "analytics")
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
