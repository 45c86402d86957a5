// Integration test of the telemetry pipeline: run the canonical managed
// flow with a shared Telemetry hub and assert that (a) the decision
// log's gain column reproduces the Eq. 7 clamped gain trajectory
// recomputed from the same sensed inputs, and (b) the span trace
// carries decide spans for all three layers plus the NSGA-II planner
// track.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "control/adaptive_gain.h"
#include "core/flow_builder.h"
#include "core/resource_share.h"
#include "obs/exporters.h"
#include "obs/telemetry.h"
#include "sim/fault_injector.h"

namespace flower {
namespace {

struct RunOutput {
  obs::Telemetry telemetry;
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  std::unique_ptr<sim::FaultInjector> chaos;
  core::ManagedFlow managed;
};

// Runs the canonical three-layer click-stream flow for `hours` with the
// shared telemetry hub (member order above guarantees the hub outlives
// the manager).
void RunFlow(RunOutput* out, double hours, bool with_faults,
             bool with_spans = false) {
  out->telemetry.spans().set_enabled(with_spans);
  core::FlowBuilder builder;
  builder.WithSeed(7).WithTelemetry(&out->telemetry);
  if (with_faults) {
    out->chaos = std::make_unique<sim::FaultInjector>(&out->sim, 7);
    // A deterministic sensor spike squarely inside the run.
    out->chaos->SpikeSensor("analytics", 30.0 * kMinute, 50.0 * kMinute,
                            2.0, 0.0, /*probability=*/1.0);
    builder.WithFaultInjector(out->chaos.get());
  }
  auto managed = builder.Build(&out->sim, &out->metrics);
  ASSERT_TRUE(managed.ok()) << managed.status();
  out->managed = std::move(*managed);
  out->sim.RunUntil(hours * kHour);
}

// (start, end, front size) of every kGeneration span on the planner
// track, in record order.
std::vector<std::tuple<double, double, double>> GenerationSpans(
    const obs::Telemetry& t) {
  std::vector<std::tuple<double, double, double>> out;
  const obs::SpanCollector& spans = t.spans();
  for (obs::SpanId id = spans.first_retained(); id < spans.end_id(); ++id) {
    const obs::SpanRecord* r = spans.Find(id);
    if (r != nullptr && r->kind == obs::SpanKind::kGeneration &&
        r->tid == obs::kPlannerTid) {
      out.emplace_back(r->start, r->end, r->value);
    }
  }
  return out;
}

TEST(TelemetryIntegrationTest, GainColumnReproducesEq7Trajectory) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(RunFlow(&run, 3.0, /*with_faults=*/false));

  // The exact Eq. 7 parameters of the attached analytics controller.
  auto controller = run.managed.manager->GetController(core::Layer::kAnalytics);
  ASSERT_TRUE(controller.ok());
  const auto* adaptive =
      dynamic_cast<const control::AdaptiveGainController*>(*controller);
  ASSERT_NE(adaptive, nullptr);
  const control::AdaptiveGainConfig& cfg = adaptive->config();

  const obs::DecisionLog& decisions = run.telemetry.decisions();
  ASSERT_GT(decisions.size(), 0u);

  // Replay Eq. 7 from the recorded sensed inputs:
  //   l_{k+1} = clamp(l_k + γ (y_k − y_r), l_min, l_max)
  // and require the decision log's gain column to match step for step.
  double gain = cfg.initial_gain;
  size_t steps = 0;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const obs::ControlDecisionRecord& d = decisions.at(i);
    if (decisions.loop(d).name != "analytics") continue;
    // A missed sensor read skips the step entirely: the controller never
    // ran, so the gain state is unchanged and there is nothing to check.
    if (d.outcome == obs::StepOutcome::kSensorMiss) continue;
    ASSERT_EQ(d.outcome, obs::StepOutcome::kActuated)
        << "fault-free run must actuate every stepped loop (t=" << d.time
        << ")";
    ASSERT_EQ(decisions.loop(d).law, "adaptive-gain");
    gain = std::clamp(gain + cfg.gamma * (d.sensed_y - d.reference),
                      cfg.gain_min, cfg.gain_max);
    EXPECT_NEAR(d.gain, gain, 1e-9) << "at t=" << d.time;
    // The record's error column is the same y_k − y_r the law consumed.
    EXPECT_NEAR(d.error, d.sensed_y - d.reference, 1e-9);
    ++steps;
  }
  EXPECT_GE(steps, 20u);
  // The trajectory must actually adapt (not sit at l_0 forever).
  EXPECT_NE(gain, cfg.initial_gain);
}

TEST(TelemetryIntegrationTest, TraceHasStepSpansForAllThreeLayers) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(RunFlow(&run, 2.0, /*with_faults=*/false,
                                  /*with_spans=*/true));

  const obs::SpanCollector& spans = run.telemetry.spans();
  std::map<std::pair<int, int>, size_t> decides_per_track;
  for (obs::SpanId id = spans.first_retained(); id < spans.end_id(); ++id) {
    const obs::SpanRecord* r = spans.Find(id);
    if (r != nullptr && r->kind == obs::SpanKind::kDecide) {
      ++decides_per_track[{r->pid, r->tid}];
    }
  }
  ASSERT_EQ(decides_per_track.size(), 3u);
  std::set<std::string> names;
  for (const auto& [track, n] : decides_per_track) {
    EXPECT_GT(n, 10u);
    names.insert(spans.track_names().at(track));
  }
  EXPECT_EQ(names, (std::set<std::string>{"loop:ingestion", "loop:analytics",
                                          "loop:storage"}));
  EXPECT_EQ(spans.evicted(), 0u);

  // The export joins each decide slice to its decision record and
  // renders the per-loop counters.
  std::ostringstream os;
  obs::WriteChromeTrace(os, spans, run.telemetry.decisions());
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"law\":\"adaptive-gain\""), std::string::npos);
  for (const char* loop : {"ingestion", "analytics", "storage"}) {
    for (const char* series : {".y", ".u", ".gain"}) {
      std::string name = "\"name\":\"" + std::string(loop) + series + "\"";
      EXPECT_NE(trace.find(name), std::string::npos) << name;
    }
  }
}

// Fault injections are zero-duration kFault spans on the fault-injector
// track; with spans disabled the injector records none.
TEST(TelemetryIntegrationTest, InjectedFaultsAreFaultSpans) {
  auto fault_spans = [](bool with_spans) {
    RunOutput run;
    RunFlow(&run, 1.0, /*with_faults=*/true, with_spans);
    size_t n = 0;
    const obs::SpanCollector& spans = run.telemetry.spans();
    for (obs::SpanId id = spans.first_retained(); id < spans.end_id();
         ++id) {
      const obs::SpanRecord* r = spans.Find(id);
      if (r == nullptr || r->kind != obs::SpanKind::kFault) continue;
      EXPECT_EQ(r->label, "sensor-spike:analytics");
      EXPECT_EQ(r->tid, obs::kFaultInjectorTid);
      EXPECT_EQ(r->start, r->end);
      ++n;
    }
    return n;
  };
  EXPECT_GT(fault_spans(true), 0u);
  EXPECT_EQ(fault_spans(false), 0u);
}

TEST(TelemetryIntegrationTest, FaultInterferenceIsStampedOnDecisions) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(RunFlow(&run, 2.0, /*with_faults=*/true));

  const auto mask =
      static_cast<obs::FaultMask>(1u << static_cast<int>(
                                      sim::FaultKind::kSensorSpike));
  size_t stamped = 0;
  const obs::DecisionLog& log = run.telemetry.decisions();
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::ControlDecisionRecord& d = log.at(i);
    if (log.loop(d).name != "analytics") continue;
    // FaultSpec windows are [start, end).
    const bool in_window =
        d.time >= 30.0 * kMinute && d.time < 50.0 * kMinute;
    if ((d.fault_mask & mask) != 0) {
      ++stamped;
      EXPECT_TRUE(in_window) << "spurious fault stamp at t=" << d.time;
    }
  }
  EXPECT_GT(stamped, 0u);
  EXPECT_GT(run.chaos->stats().sensor_spikes, 0u);
}

TEST(TelemetryIntegrationTest, MetricsRegistryTracksTheLoops) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(RunFlow(&run, 2.0, /*with_faults=*/false));

  obs::MetricsSnapshot snap = run.telemetry.metrics().Snapshot();
  auto gauge = [&](const std::string& name, const std::string& loop) {
    for (const obs::GaugeSample& g : snap.gauges) {
      if (g.name != name) continue;
      for (const auto& [k, v] : g.labels) {
        if (k == "loop" && v == loop) return true;
      }
    }
    return false;
  };
  for (const char* loop : {"ingestion", "analytics", "storage"}) {
    EXPECT_TRUE(gauge("loop.sensed_y", loop)) << loop;
    EXPECT_TRUE(gauge("loop.actuation", loop)) << loop;
    EXPECT_TRUE(gauge("loop.gain", loop)) << loop;
  }
}

// A flow's telemetry is a function of its inputs: two runs of one
// scenario export byte-identical decision and metrics JSONL.
TEST(TelemetryIntegrationTest, IdenticalRunsExportIdenticalJsonl) {
  std::string exports[2];
  for (std::string& text : exports) {
    RunOutput run;
    ASSERT_NO_FATAL_FAILURE(RunFlow(&run, 2.0, /*with_faults=*/true));
    const std::string path = ::testing::TempDir() + "/telemetry_run.jsonl";
    ASSERT_TRUE(run.telemetry.ExportJsonl(path, run.sim.Now()).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  EXPECT_NE(exports[0].find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(exports[0].find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(TelemetryIntegrationTest, Nsga2ObserverEmitsPlannerTelemetry) {
  obs::Telemetry telemetry;
  telemetry.spans().set_enabled(true);
  core::ResourceShareRequest request;
  opt::Nsga2Config solver;
  solver.population_size = 24;
  solver.generations = 12;
  solver.on_generation =
      obs::MakeNsga2Observer(&telemetry, "planner", /*anchor=*/0.0);
  core::ResourceShareAnalyzer analyzer(solver);
  auto result = analyzer.Analyze(request);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(GenerationSpans(telemetry).size(), 12u);
  EXPECT_EQ(telemetry.spans().track_names().at(
                {obs::kTracePid, obs::kPlannerTid}),
            "planner:planner");

  obs::MetricsSnapshot snap = telemetry.metrics().Snapshot();
  bool counted = false;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == "nsga2.generations") {
      counted = true;
      EXPECT_EQ(c.value, 12u);
    }
  }
  EXPECT_TRUE(counted);
  bool front_size = false;
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == "nsga2.front_size") {
      front_size = true;
      EXPECT_GT(g.value, 0.0);
    }
  }
  EXPECT_TRUE(front_size);
}

TEST(TelemetryIntegrationTest, PlannerTelemetryInvariantUnderSolverThreads) {
  // The NSGA-II observer always runs on the coordinator thread, once
  // per generation, so the recorded planner telemetry must be identical
  // whether the solver fans out over 1 or 4 threads.
  auto run = [](size_t threads, obs::Telemetry* telemetry) {
    telemetry->spans().set_enabled(true);
    core::ResourceShareRequest request;
    opt::Nsga2Config solver;
    solver.population_size = 24;
    solver.generations = 12;
    solver.num_threads = threads;
    solver.on_generation =
        obs::MakeNsga2Observer(telemetry, "planner", /*anchor=*/0.0);
    core::ResourceShareAnalyzer analyzer(solver);
    auto result = analyzer.Analyze(request);
    ASSERT_TRUE(result.ok()) << result.status();
  };
  obs::Telemetry serial, parallel;
  ASSERT_NO_FATAL_FAILURE(run(1, &serial));
  ASSERT_NO_FATAL_FAILURE(run(4, &parallel));

  EXPECT_EQ(GenerationSpans(serial).size(), 12u);
  EXPECT_EQ(GenerationSpans(serial), GenerationSpans(parallel));

  auto planner_gauges = [](const obs::Telemetry& t) {
    std::vector<std::pair<std::string, double>> out;
    obs::MetricsSnapshot snap = t.metrics().Snapshot();
    for (const obs::GaugeSample& g : snap.gauges) {
      if (g.name.rfind("nsga2.", 0) == 0) out.push_back({g.name, g.value});
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto serial_gauges = planner_gauges(serial);
  EXPECT_FALSE(serial_gauges.empty());
  EXPECT_EQ(serial_gauges, planner_gauges(parallel));
}

}  // namespace
}  // namespace flower
