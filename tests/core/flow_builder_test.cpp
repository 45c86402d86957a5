#include "core/flow_builder.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace flower::core
