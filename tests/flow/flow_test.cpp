#include "flow/flow.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "workload/arrival.h"

namespace flower::flow {
namespace {

FlowConfig TestConfig() {
  FlowConfig cfg;
  cfg.stream.initial_shards = 4;
  cfg.stream.max_shards = 64;
  cfg.initial_workers = 4;
  cfg.instance_type = {"test.vm", 2, 1.0e6, 0.10};
  cfg.table.initial_wcu = 200.0;
  cfg.table.max_wcu = 5000.0;
  cfg.window_sec = 60.0;
  cfg.slide_sec = 10.0;
  return cfg;
}

workload::ClickStreamConfig Wl() {
  workload::ClickStreamConfig cfg;
  cfg.num_users = 5000;
  cfg.num_urls = 100;
  return cfg;
}

TEST(DataAnalyticsFlowTest, CreateValidates) {
  cloudwatch::MetricStore metrics;
  EXPECT_FALSE(DataAnalyticsFlow::Create(nullptr, &metrics, TestConfig()).ok());
  sim::Simulation sim;
  auto flow = DataAnalyticsFlow::Create(&sim, &metrics, TestConfig());
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ((*flow)->stream().shard_count(), 4);
  EXPECT_EQ((*flow)->cluster().worker_count(), 4);
  EXPECT_DOUBLE_EQ((*flow)->table().provisioned_wcu(), 200.0);
}

// A hostile window setting is the flow's Status, not a hang or an
// abort, and the refused flow leaves no event on the simulation.
TEST(DataAnalyticsFlowTest, CreateReturnsHostileWindowSettings) {
  for (auto [window, slide] :
       {std::pair{std::numeric_limits<double>::quiet_NaN(), 10.0},
        std::pair{60.0, std::numeric_limits<double>::infinity()},
        std::pair{1e9, 1.0}}) {
    SCOPED_TRACE(testing::Message() << window << " / " << slide);
    sim::Simulation sim;
    cloudwatch::MetricStore metrics;
    FlowConfig cfg = TestConfig();
    cfg.window_sec = window;
    cfg.slide_sec = slide;
    auto flow = DataAnalyticsFlow::Create(&sim, &metrics, cfg);
    ASSERT_FALSE(flow.ok());
    EXPECT_EQ(flow.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(DataAnalyticsFlowTest, WorkloadAttachOnlyOnce) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto flow =
      DataAnalyticsFlow::Create(&sim, &metrics, TestConfig()).MoveValueOrDie();
  EXPECT_FALSE(flow->AttachWorkload(nullptr, Wl(), 1).ok());
  ASSERT_TRUE(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(500.0), Wl(), 1).ok());
  EXPECT_EQ(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(500.0), Wl(), 1).code(),
      StatusCode::kAlreadyExists);
}

TEST(DataAnalyticsFlowTest, EndToEndRecordsReachStorage) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto flow =
      DataAnalyticsFlow::Create(&sim, &metrics, TestConfig()).MoveValueOrDie();
  ASSERT_TRUE(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(800.0), Wl(), 42).ok());
  sim.RunUntil(600.0);  // 10 simulated minutes.
  // Events were generated and none dropped (4 shards ≫ 800 rec/s).
  EXPECT_GT(flow->generator()->total_generated(), 400000u);
  EXPECT_EQ(flow->generator()->total_dropped(), 0u);
  // The topology processed tuples end to end.
  EXPECT_GT(flow->cluster().total_executed(), 0u);
  EXPECT_GT(flow->cluster().total_acked(), 0u);
  // Sliding-window aggregates were persisted: one item per active URL.
  EXPECT_GT(flow->table().ItemCount(), 50u);
  EXPECT_LE(flow->table().ItemCount(), 100u);
  EXPECT_GT(flow->table().total_writes(), 100u);
}

TEST(DataAnalyticsFlowTest, AggregateValuesAreWindowCounts) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  FlowConfig cfg = TestConfig();
  auto flow = DataAnalyticsFlow::Create(&sim, &metrics, cfg).MoveValueOrDie();
  workload::ClickStreamConfig wl = Wl();
  wl.num_urls = 1;  // Every click hits one URL.
  ASSERT_TRUE(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(100.0), wl, 42).ok());
  sim.RunUntil(300.0);
  // Item 0 holds the latest 60 s window count for URL 0: ~6000 clicks.
  auto item = flow->table().GetItem(0, 128);
  ASSERT_TRUE(item.ok());
  double count = *item;
  EXPECT_NEAR(count, 6000.0, 1200.0);
}

TEST(DataAnalyticsFlowTest, UndersizedClusterSaturates) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  FlowConfig cfg = TestConfig();
  cfg.initial_workers = 1;
  cfg.instance_type.compute_units_per_sec = 2.0e5;  // Tiny VM.
  auto flow = DataAnalyticsFlow::Create(&sim, &metrics, cfg).MoveValueOrDie();
  ASSERT_TRUE(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(1000.0), Wl(), 42).ok());
  sim.RunUntil(300.0);
  EXPECT_GT(flow->cluster().LastTickCpuUtilizationPct(), 95.0);
}

TEST(DataAnalyticsFlowTest, MetricsPublishedForAllThreeLayers) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto flow =
      DataAnalyticsFlow::Create(&sim, &metrics, TestConfig()).MoveValueOrDie();
  ASSERT_TRUE(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(500.0), Wl(), 42).ok());
  sim.RunUntil(300.0);
  EXPECT_FALSE(metrics.ListMetrics("Flower/Kinesis").empty());
  EXPECT_FALSE(metrics.ListMetrics("Flower/Storm").empty());
  EXPECT_FALSE(metrics.ListMetrics("Flower/DynamoDB").empty());
}

TEST(DataAnalyticsFlowTest, SurvivesReshardMidRun) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto flow =
      DataAnalyticsFlow::Create(&sim, &metrics, TestConfig()).MoveValueOrDie();
  ASSERT_TRUE(flow->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(600.0), Wl(), 42).ok());
  sim.RunUntil(120.0);
  uint64_t acked_before = flow->cluster().total_acked();
  // Grow then shrink the stream while traffic flows; the spout must
  // keep draining every shard through both transitions.
  ASSERT_TRUE(flow->stream().UpdateShardCount(16).ok());
  sim.RunUntil(300.0);
  EXPECT_EQ(flow->stream().shard_count(), 16);
  ASSERT_TRUE(flow->stream().UpdateShardCount(2).ok());
  sim.RunUntil(600.0);
  EXPECT_EQ(flow->stream().shard_count(), 2);
  EXPECT_GT(flow->cluster().total_acked(), acked_before);
  EXPECT_EQ(flow->generator()->total_dropped(), 0u);
  // The pipeline kept up: bounded end-of-run backlog.
  EXPECT_LT(flow->stream().BacklogRecords(), 30000u);
}

TEST(DataAnalyticsFlowTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Simulation sim;
    cloudwatch::MetricStore metrics;
    auto flow = DataAnalyticsFlow::Create(&sim, &metrics, TestConfig())
                    .MoveValueOrDie();
    EXPECT_TRUE(flow->AttachWorkload(
        std::make_shared<workload::ConstantArrival>(500.0), Wl(), 42).ok());
    sim.RunUntil(300.0);
    return std::make_pair(flow->generator()->total_generated(),
                          flow->cluster().total_acked());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace flower::flow
