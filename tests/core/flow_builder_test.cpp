#include "core/flow_builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/fault_injector.h"

namespace flower::core {
namespace {

flow::FlowConfig SmallFlow() {
  flow::FlowConfig cfg;
  cfg.stream.initial_shards = 2;
  cfg.stream.max_shards = 64;
  cfg.initial_workers = 2;
  cfg.instance_type = {"test.vm", 2, 1.0e6, 0.10};
  cfg.table.initial_wcu = 100.0;
  cfg.table.max_wcu = 5000.0;
  return cfg;
}

TEST(FlowBuilderTest, RequiresMetricStore) {
  sim::Simulation sim;
  EXPECT_FALSE(FlowBuilder().Build(&sim, nullptr).ok());
}

TEST(FlowBuilderTest, BuildsManagedFlowWithAllLayers) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto mf = FlowBuilder()
                .WithFlowConfig(SmallFlow())
                .WithWorkload(std::make_shared<workload::ConstantArrival>(500.0))
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  EXPECT_TRUE(mf->manager->IsAttached(Layer::kIngestion));
  EXPECT_TRUE(mf->manager->IsAttached(Layer::kAnalytics));
  EXPECT_TRUE(mf->manager->IsAttached(Layer::kStorage));
  EXPECT_NE(mf->flow->generator(), nullptr);
}

TEST(FlowBuilderTest, DisabledLayerNotAttached) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  LayerElasticityConfig storage;
  storage.enabled = false;
  auto mf = FlowBuilder()
                .WithFlowConfig(SmallFlow())
                .WithStorage(storage)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  EXPECT_TRUE(mf->manager->IsAttached(Layer::kIngestion));
  EXPECT_FALSE(mf->manager->IsAttached(Layer::kStorage));
}

TEST(FlowBuilderTest, InvalidReferenceRejected) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  LayerElasticityConfig bad;
  bad.reference_utilization_pct = 150.0;
  EXPECT_FALSE(FlowBuilder()
                   .WithFlowConfig(SmallFlow())
                   .WithAnalytics(bad)
                   .Build(&sim, &metrics)
                   .ok());
}

TEST(FlowBuilderTest, ControllerKindAppliedToAllLayers) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto mf = FlowBuilder()
                .WithFlowConfig(SmallFlow())
                .WithControllerKind(ControllerKind::kRuleBased)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  for (Layer layer :
       {Layer::kIngestion, Layer::kAnalytics, Layer::kStorage}) {
    auto c = mf->manager->GetController(layer);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ((*c)->name(), "rule-based");
  }
}

TEST(FlowBuilderTest, FeedforwardKindWiresArrivalDriver) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto mf = FlowBuilder()
                .WithFlowConfig(SmallFlow())
                .WithControllerKind(ControllerKind::kFeedforward)
                .WithWorkload(
                    std::make_shared<workload::ConstantArrival>(800.0))
                .WithSeed(11)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  // Analytics and ingestion run the feedforward controller; storage
  // falls back to adaptive-gain (the §3.1 negative finding: arrivals do
  // not predict storage writes for this flow).
  EXPECT_EQ((*mf->manager->GetController(Layer::kAnalytics))->name(),
            "feedforward");
  EXPECT_EQ((*mf->manager->GetController(Layer::kIngestion))->name(),
            "feedforward");
  EXPECT_EQ((*mf->manager->GetController(Layer::kStorage))->name(),
            "adaptive-gain");
  sim.RunUntil(2.0 * kHour);
  // The driver (Kinesis IncomingRecords) is live, so the controller
  // should track without driver misses after warmup, and utilization
  // should settle near the 60% reference.
  auto state = mf->manager->GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  auto tail = (*state)->sensed().Window(kHour, 2.0 * kHour);
  ASSERT_GT(tail.size(), 10u);
  double sum = 0.0;
  for (const Sample& s : tail.samples()) sum += s.value;
  EXPECT_NEAR(sum / static_cast<double>(tail.size()), 60.0, 15.0);
}

TEST(FlowBuilderTest, ManagedFlowActuallyScalesUnderLoad) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  flow::FlowConfig cfg = SmallFlow();
  cfg.initial_workers = 1;
  LayerElasticityConfig analytics;
  analytics.max_resource = 20.0;
  auto mf = FlowBuilder()
                .WithFlowConfig(cfg)
                .WithAnalytics(analytics)
                .WithWorkload(
                    std::make_shared<workload::ConstantArrival>(1500.0))
                .WithSeed(9)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  // 1500 rec/s * ~4800 wu/record ≈ 7.2M wu/s demand vs 0.9M per
  // worker: the analytics controller must scale out well beyond one VM.
  sim.RunUntil(3600.0);
  EXPECT_GT(mf->flow->cluster().worker_count(), 3);
  auto state = mf->manager->GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_GT((*state)->actuations().size(), 10u);
}

LayerElasticityConfig MinuteLoop(double min_resource, double max_resource) {
  LayerElasticityConfig lc;
  lc.monitoring_period_sec = 60.0;
  lc.monitoring_window_sec = 60.0;
  lc.min_resource = min_resource;
  lc.max_resource = max_resource;
  return lc;
}

// The reported lookback is the longest reach among the wired readers: a
// loop's window plus the longest metric-delay fault on its layer, and
// the feedforward driver's 120 s window when a feedforward loop exists.
TEST(FlowBuilderTest, ReportsLongestReaderLookback) {
  auto lookback = [](FlowBuilder builder, sim::Simulation* sim) {
    cloudwatch::MetricStore metrics;
    auto mf = builder.WithFlowConfig(SmallFlow()).Build(sim, &metrics);
    EXPECT_TRUE(mf.ok()) << mf.status();
    return mf.ok() ? mf->metric_lookback_sec : -1.0;
  };
  sim::Simulation sim;
  EXPECT_EQ(lookback(FlowBuilder(), &sim), 120.0);

  LayerElasticityConfig slow = MinuteLoop(1.0, 40.0);
  slow.monitoring_window_sec = 90.0;
  FlowBuilder windows;
  windows.WithIngestion(MinuteLoop(1.0, 64.0))
      .WithAnalytics(slow)
      .WithStorage(MinuteLoop(5.0, 2000.0));
  EXPECT_EQ(lookback(windows, &sim), 90.0);

  FlowBuilder feedforward = windows;
  feedforward.WithControllerKind(ControllerKind::kFeedforward);
  EXPECT_EQ(lookback(feedforward, &sim), 120.0);

  sim::FaultInjector chaos(&sim, 1);
  chaos.DelayMetrics("storage", 0.0, 600.0, 200.0);
  chaos.DelayMetrics("", 300.0, 900.0, 30.0);
  FlowBuilder delayed = windows;
  delayed.WithFaultInjector(&chaos);
  EXPECT_EQ(lookback(delayed, &sim), 260.0);  // Storage: 60 + 200.
}

// Every loop's sensed and actuated trace, values in hex so equality is
// bit equality.
std::string Traces(const ManagedFlow& mf) {
  std::string out;
  char buf[96];
  for (Layer layer :
       {Layer::kIngestion, Layer::kAnalytics, Layer::kStorage}) {
    const LayerControlState* state = *mf.manager->GetState(layer);
    for (const TimeSeries& ts : {state->sensed(), state->actuations()}) {
      for (const Sample& s : ts.samples()) {
        std::snprintf(buf, sizeof(buf), "%a %a\n", s.time, s.value);
        out += buf;
      }
      out += "--\n";
    }
  }
  return out;
}

struct DelayedRun {
  std::string traces;
  double lookback_sec = 0.0;
  size_t retained = 0;
  size_t total = 0;
};

struct MetricDelay {
  const char* target;
  SimTime start;
  SimTime end;
  double delay_sec;
};

// Three hours of a managed flow whose sensors read through metric-delay
// faults, on a store that keeps full history or one bounded to the
// builder's lookback.
DelayedRun RunDelayedFlow(ControllerKind kind,
                          const std::vector<MetricDelay>& delays,
                          bool bound) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  sim::FaultInjector chaos(&sim, 5);
  for (const MetricDelay& d : delays) {
    chaos.DelayMetrics(d.target, d.start, d.end, d.delay_sec);
  }
  auto mf = FlowBuilder()
                .WithFlowConfig(SmallFlow())
                .WithIngestion(MinuteLoop(1.0, 64.0))
                .WithAnalytics(MinuteLoop(1.0, 40.0))
                .WithStorage(MinuteLoop(5.0, 5000.0))
                .WithControllerKind(kind)
                .WithFaultInjector(&chaos)
                .WithWorkload(std::make_shared<workload::DiurnalArrival>(
                    300.0, 200.0, 2.0 * kHour, 0.0))
                .WithSeed(21)
                .Build(&sim, &metrics);
  DelayedRun run;
  EXPECT_TRUE(mf.ok()) << mf.status();
  if (!mf.ok()) return run;
  run.lookback_sec = mf->metric_lookback_sec;
  if (bound) {
    EXPECT_TRUE(metrics.BoundHistory(run.lookback_sec).ok());
  }
  sim.RunUntil(3.0 * kHour);
  run.traces = Traces(*mf);
  for (const cloudwatch::MetricId& id : metrics.ListMetrics()) {
    run.retained += (*metrics.GetSeries(id))->size();
  }
  run.total = metrics.total_datapoints();
  return run;
}

// A store bounded to the reported lookback drives every loop and the
// delayed sensors to the same decisions as one that keeps full history,
// while holding a fraction of it. Two cases: feedforward loops, whose
// driver reads 120 s, delayed 150 s and 45 s past their 60 s window;
// and adaptive-gain loops delayed 0.4 s from 1080 s on, where
// L = fl(60 + 0.4) and a delayed window (fl(t - 0.4) - 60, fl(t - 0.4)]
// can start a rounding step before fl(t - L).
TEST(FlowBuilderTest, BoundedStoreDecidesLikeFullHistory) {
  struct Case {
    ControllerKind kind;
    std::vector<MetricDelay> delays;
    double lookback_sec;
  };
  const Case cases[] = {
      {ControllerKind::kFeedforward,
       {{"analytics", 1800.0, 5400.0, 150.0}, {"", 3600.0, 7200.0, 45.0}},
       210.0},  // Analytics: 60 + 150.
      {ControllerKind::kAdaptiveGain,
       {{"", 1080.0, 3.0 * kHour, 0.4}},
       60.0 + 0.4},
  };
  for (const Case& c : cases) {
    DelayedRun full = RunDelayedFlow(c.kind, c.delays, /*bound=*/false);
    DelayedRun bounded = RunDelayedFlow(c.kind, c.delays, /*bound=*/true);
    EXPECT_EQ(bounded.lookback_sec, c.lookback_sec);
    ASSERT_FALSE(full.traces.empty());
    EXPECT_EQ(bounded.traces, full.traces) << c.lookback_sec;
    EXPECT_EQ(bounded.total, full.total);
    EXPECT_EQ(full.retained, full.total);
    EXPECT_LT(bounded.retained * 20, full.retained);
  }
}

}  // namespace
}  // namespace flower::core
