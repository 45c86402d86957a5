// Hardened control-loop behavior: retry with backoff, the per-loop
// circuit breaker and hold-last-value sensing — exercised against the
// fault-injection subsystem where a full loop is involved.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "control/adaptive_gain.h"
#include "core/elasticity_manager.h"
#include "core/flow_builder.h"
#include "sim/fault_injector.h"
#include "workload/arrival.h"

namespace flower::core {
namespace {

const cloudwatch::MetricId kCpu{"Flower/Storm", "CpuUtilization", "c"};

std::unique_ptr<control::Controller> TestController() {
  control::AdaptiveGainConfig cfg;
  cfg.reference = 60.0;
  cfg.initial_gain = 0.05;
  cfg.gain_min = 0.01;
  cfg.gain_max = 0.5;
  cfg.gamma = 0.01;
  cfg.limits.min = 1.0;
  cfg.limits.max = 100.0;
  return std::make_unique<control::AdaptiveGainController>(cfg);
}

LayerControlConfig TestConfig(std::function<Status(double)> actuator) {
  LayerControlConfig cfg;
  cfg.layer = Layer::kAnalytics;
  cfg.sensor_metric = kCpu;
  cfg.monitoring_period_sec = 60.0;
  cfg.monitoring_window_sec = 120.0;
  cfg.start_delay_sec = 60.0;
  cfg.controller = TestController();
  cfg.actuator = std::move(actuator);
  cfg.initial_u = 5.0;
  return cfg;
}

void PublishCpuForever(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
                       double value = 90.0) {
  ASSERT_TRUE(sim->SchedulePeriodic(30.0, 30.0, [sim, metrics, value] {
    EXPECT_TRUE(metrics->Put(kCpu, sim->Now(), value).ok());
    return true;
  }).ok());
}

TEST(ResilienceTest, AttachRejectsInvalidPolicies) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  auto with = [&](auto mutate) {
    LayerControlConfig cfg = TestConfig([](double) { return Status::OK(); });
    mutate(cfg.resilience);
    return mgr.Attach(std::move(cfg)).ok();
  };
  EXPECT_FALSE(with([](ResiliencePolicy& p) { p.retry.max_retries = -1; }));
  EXPECT_FALSE(
      with([](ResiliencePolicy& p) { p.retry.backoff_multiplier = 0.5; }));
  EXPECT_FALSE(
      with([](ResiliencePolicy& p) { p.retry.jitter_fraction = 1.5; }));
  EXPECT_FALSE(with([](ResiliencePolicy& p) {
    p.breaker.failure_threshold = 3;
    p.breaker.cooldown_sec = 0.0;
  }));
  EXPECT_FALSE(
      with([](ResiliencePolicy& p) { p.sensor.max_hold_sec = -1.0; }));
  EXPECT_TRUE(with([](ResiliencePolicy&) {}));
}

TEST(ResilienceTest, RetryRecoversTransientActuatorFailure) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  int calls = 0;
  LayerControlConfig cfg = TestConfig([&](double) {
    // Only the very first attempt fails (a transient resize error).
    ++calls;
    return calls == 1 ? Status::Internal("transient") : Status::OK();
  });
  cfg.resilience.retry.max_retries = 3;
  cfg.resilience.retry.initial_backoff_sec = 2.0;
  cfg.resilience.retry.jitter_fraction = 0.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  PublishCpuForever(&sim, &metrics);
  sim.RunUntil(300.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // Step at t=60: attempt fails, the 2 s-backoff retry lands it.
  EXPECT_EQ((*state)->actuation_failures(), 1u);
  EXPECT_EQ((*state)->actuation_retries(), 1u);
  EXPECT_EQ((*state)->retry_successes(), 1u);
  // Steps kept coming afterwards with no further retries.
  EXPECT_GE((*state)->actuations().size(), 4u);
}

TEST(ResilienceTest, RetriesAreBoundedPerStep) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  LayerControlConfig cfg =
      TestConfig([](double) { return Status::Internal("down"); });
  cfg.resilience.retry.max_retries = 2;
  cfg.resilience.retry.initial_backoff_sec = 2.0;
  cfg.resilience.retry.backoff_multiplier = 2.0;
  cfg.resilience.retry.jitter_fraction = 0.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  PublishCpuForever(&sim, &metrics);
  sim.RunUntil(150.0);  // Two control steps (t=60, t=120).
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // Each step: the initial attempt plus exactly max_retries retries.
  EXPECT_EQ((*state)->actuation_retries(), 4u);
  EXPECT_EQ((*state)->actuation_failures(), 6u);
  EXPECT_EQ((*state)->retry_successes(), 0u);
}

TEST(ResilienceTest, NewControlStepSupersedesOutstandingRetry) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  LayerControlConfig cfg =
      TestConfig([](double) { return Status::Internal("down"); });
  cfg.resilience.retry.max_retries = 5;
  // Backoff longer than the control period: the retry would land after
  // the next step, whose fresher actuation supersedes it.
  cfg.resilience.retry.initial_backoff_sec = 90.0;
  cfg.resilience.retry.max_backoff_sec = 90.0;
  cfg.resilience.retry.jitter_fraction = 0.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  PublishCpuForever(&sim, &metrics);
  sim.RunUntil(400.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // Every step failed once; no stale retry ever fired.
  EXPECT_EQ((*state)->actuation_retries(), 0u);
  EXPECT_EQ((*state)->actuation_failures(), (*state)->actuations().size());
}

TEST(ResilienceTest, BreakerTripsThenRecoversViaHalfOpenProbe) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  int failures_left = 3;
  int calls = 0;
  LayerControlConfig cfg = TestConfig([&](double) {
    ++calls;
    if (failures_left > 0) {
      --failures_left;
      return Status::Internal("outage");
    }
    return Status::OK();
  });
  cfg.resilience.breaker.failure_threshold = 3;
  cfg.resilience.breaker.cooldown_sec = 250.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  PublishCpuForever(&sim, &metrics);
  sim.RunUntil(700.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // Steps at 60/120/180 fail and trip the breaker; steps at 240..420
  // are skipped (cooldown ends at 430); the t=480 half-open probe
  // succeeds and closes it; t=540/600/660 actuate normally.
  EXPECT_EQ((*state)->breaker_trips(), 1u);
  EXPECT_EQ((*state)->breaker_skipped_steps(), 4u);
  EXPECT_EQ((*state)->actuation_failures(), 3u);
  EXPECT_FALSE((*state)->breaker_open);
  EXPECT_EQ(calls, 7);  // 3 failures + probe + 3 healthy actuations.
  // The loop kept sensing throughout — the breaker only guards the
  // actuator, it does not blind the controller.
  EXPECT_EQ((*state)->sensed().size(), (*state)->actuations().size());
}

// A trip is a kBreaker span over [trip, trip + cooldown), parented on
// the failed attempt that tripped it, recorded into the hub the manager
// was constructed with.
TEST(ResilienceTest, BreakerTripIsABreakerSpanOverTheCooldown) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry;
  telemetry.spans().set_enabled(true);
  ElasticityManager mgr(&sim, &metrics, &telemetry);
  EXPECT_EQ(mgr.telemetry(), &telemetry);
  LayerControlConfig cfg =
      TestConfig([](double) { return Status::Internal("outage"); });
  cfg.resilience.breaker.failure_threshold = 3;
  cfg.resilience.breaker.cooldown_sec = 250.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  PublishCpuForever(&sim, &metrics);
  sim.RunUntil(200.0);

  const obs::SpanCollector& spans = telemetry.spans();
  std::vector<const obs::SpanRecord*> breakers;
  for (obs::SpanId id = spans.first_retained(); id < spans.end_id(); ++id) {
    const obs::SpanRecord* r = spans.Find(id);
    if (r != nullptr && r->kind == obs::SpanKind::kBreaker) {
      breakers.push_back(r);
    }
  }
  // Steps at 60/120/180 fail; the third trips the breaker.
  ASSERT_EQ(breakers.size(), 1u);
  EXPECT_EQ(breakers[0]->start, 180.0);
  EXPECT_EQ(breakers[0]->end, 430.0);
  EXPECT_EQ(breakers[0]->label, "analytics");
  const obs::SpanRecord* cause = spans.Find(breakers[0]->parent);
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->kind, obs::SpanKind::kActuate);
  EXPECT_EQ(cause->outcome,
            static_cast<uint8_t>(obs::StepOutcome::kActuationFailed));
  EXPECT_EQ(telemetry.decisions().total_appended(), 3u);
}

TEST(ResilienceTest, FailedHalfOpenProbeReopensBreaker) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  LayerControlConfig cfg =
      TestConfig([](double) { return Status::Internal("dead"); });
  cfg.resilience.breaker.failure_threshold = 2;
  cfg.resilience.breaker.cooldown_sec = 150.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  PublishCpuForever(&sim, &metrics);
  sim.RunUntil(500.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // Trip at t=120 (cooldown to 270), failed probe at t=300 re-trips
  // (cooldown to 450), failed probe at t=480 re-trips again.
  EXPECT_EQ((*state)->breaker_trips(), 3u);
  EXPECT_EQ((*state)->actuation_failures(), 4u);
  EXPECT_TRUE((*state)->breaker_open);
}

// The record carries the law's gain and raw output whenever Update ran
// the law — an open breaker included, since the law runs before the
// breaker check — and NaN when it did not (a sensor miss).
TEST(ResilienceTest, DecisionRecordsCarryTheLawsAskOnlyWhenItRan) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  LayerControlConfig cfg =
      TestConfig([](double) { return Status::Internal("dead"); });
  cfg.resilience.breaker.failure_threshold = 2;
  cfg.resilience.breaker.cooldown_sec = 150.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  // Metrics flow until t=300; steps from t=420 on find no datapoints.
  ASSERT_TRUE(sim.SchedulePeriodic(30.0, 30.0, [&] {
    EXPECT_TRUE(metrics.Put(kCpu, sim.Now(), 90.0).ok());
    return sim.Now() < 300.0;
  }).ok());
  sim.RunUntil(500.0);

  const obs::DecisionLog& log = mgr.telemetry()->decisions();
  size_t seen[5] = {0, 0, 0, 0, 0};
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::ControlDecisionRecord& r = log.at(i);
    ++seen[static_cast<int>(r.outcome)];
    EXPECT_EQ(log.loop(r).law, "adaptive-gain");
    EXPECT_DOUBLE_EQ(r.reference, 60.0);
    if (r.outcome == obs::StepOutcome::kSensorMiss) {
      EXPECT_TRUE(std::isnan(r.gain)) << "t=" << r.time;
      EXPECT_TRUE(std::isnan(r.raw_u)) << "t=" << r.time;
      EXPECT_TRUE(std::isnan(r.clamped_u)) << "t=" << r.time;
      EXPECT_TRUE(std::isnan(r.error)) << "t=" << r.time;
    } else {
      EXPECT_TRUE(std::isfinite(r.gain)) << "t=" << r.time;
      EXPECT_TRUE(std::isfinite(r.raw_u)) << "t=" << r.time;
      EXPECT_DOUBLE_EQ(r.error, r.sensed_y - r.reference);
    }
  }
  EXPECT_GT(seen[static_cast<int>(obs::StepOutcome::kActuationFailed)], 0u);
  EXPECT_GT(seen[static_cast<int>(obs::StepOutcome::kBreakerOpen)], 0u);
  EXPECT_GT(seen[static_cast<int>(obs::StepOutcome::kSensorMiss)], 0u);
}

TEST(ResilienceTest, HoldLastValueBridgesSensorGapUntilMaxAge) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  LayerControlConfig cfg = TestConfig([](double) { return Status::OK(); });
  cfg.resilience.sensor.on_miss = SensorMissPolicy::kHoldLastValue;
  cfg.resilience.sensor.max_hold_sec = 150.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  // Metrics flow until t=180, then the store goes silent.
  ASSERT_TRUE(sim.SchedulePeriodic(30.0, 30.0, [&] {
    EXPECT_TRUE(metrics.Put(kCpu, sim.Now(), 90.0).ok());
    return sim.Now() < 180.0;
  }).ok());
  sim.RunUntil(500.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // Steps 60..240 sense fresh data ((t-120, t] still has datapoints);
  // steps 300 and 360 run on the held value (ages 60 s and 120 s);
  // steps 420+ exceed max_hold_sec and skip.
  EXPECT_EQ((*state)->stale_sensor_reads(), 2u);
  EXPECT_EQ((*state)->sensor_misses(), 2u);
  EXPECT_EQ((*state)->sensed().size(), 6u);
  // The held steps replayed the last good measurement.
  auto samples = (*state)->sensed().samples();
  EXPECT_DOUBLE_EQ(samples[4].value, samples[3].value);
  EXPECT_DOUBLE_EQ(samples[5].value, samples[3].value);
}

TEST(ResilienceTest, ManagedFlowRecoversFromInjectedOutage) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  sim::FaultInjector chaos(&sim, /*seed=*/5);
  // Analytics resizes fail 80% of the time for 20 minutes.
  chaos.FailActuator("analytics", 600.0, 1800.0, 0.8);
  flow::FlowConfig fc;
  fc.stream.initial_shards = 2;
  fc.stream.max_shards = 64;
  fc.initial_workers = 1;
  fc.instance_type = {"test.vm", 2, 1.0e6, 0.10};
  fc.table.initial_wcu = 100.0;
  fc.table.max_wcu = 5000.0;
  ResiliencePolicy hardened;
  hardened.retry.max_retries = 3;
  hardened.retry.initial_backoff_sec = 5.0;
  auto mf = FlowBuilder()
                .WithFlowConfig(fc)
                .WithWorkload(std::make_shared<workload::ConstantArrival>(1500.0))
                .WithResilience(hardened)
                .WithFaultInjector(&chaos)
                .WithSeed(9)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  sim.RunUntil(3600.0);
  auto state = mf->manager->GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  // The injector really did interfere, retries landed actuations
  // through the outage, and the loop still scaled the cluster out.
  EXPECT_GT(chaos.stats().actuator_failures, 0u);
  EXPECT_GT((*state)->retry_successes(), 0u);
  EXPECT_GT(mf->flow->cluster().worker_count(), 3);
}

}  // namespace
}  // namespace flower::core
