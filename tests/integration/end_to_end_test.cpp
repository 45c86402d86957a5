// Full-system integration tests: the managed click-stream flow under
// dynamic load, exercising workload generation, all three simulated
// services, metric publication, dependency analysis, resource-share
// optimization, and the per-layer control loops together.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dependency_analyzer.h"
#include "core/flow_builder.h"
#include "core/monitor.h"
#include "core/resource_share.h"
#include "stats/correlation.h"

namespace flower::core {
namespace {

flow::FlowConfig BaseFlow() {
  flow::FlowConfig cfg;
  cfg.stream.initial_shards = 2;
  cfg.stream.max_shards = 64;
  cfg.initial_workers = 2;
  cfg.instance_type = {"test.vm", 2, 1.0e6, 0.10};
  cfg.worker_boot_delay_sec = 60.0;
  cfg.table.initial_wcu = 100.0;
  cfg.table.max_wcu = 5000.0;
  return cfg;
}

workload::ClickStreamConfig Wl() {
  workload::ClickStreamConfig cfg;
  cfg.num_users = 20000;
  cfg.num_urls = 200;
  return cfg;
}

TEST(EndToEndTest, ManagedFlowTracksDiurnalLoadOnAllLayers) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  // Diurnal load: 400 ± 300 rec/s over a compressed 2-hour "day".
  auto arrival = std::make_shared<workload::DiurnalArrival>(400.0, 300.0,
                                                            2.0 * kHour);
  auto mf = FlowBuilder()
                .WithFlowConfig(BaseFlow())
                .WithWorkload(arrival, Wl())
                .WithSeed(17)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  sim.RunUntil(4.0 * kHour);

  // 1) No layer's controller got stuck: every layer actuated.
  for (Layer layer :
       {Layer::kIngestion, Layer::kAnalytics, Layer::kStorage}) {
    auto state = mf->manager->GetState(layer);
    ASSERT_TRUE(state.ok()) << LayerToString(layer);
    EXPECT_GT((*state)->actuations().size(), 50u) << LayerToString(layer);
  }

  // 2) Analytics utilization stays in a sane band on average (the
  //    reference is 60%).
  auto analytics = mf->manager->GetState(Layer::kAnalytics);
  auto sensed = (*analytics)->sensed().Window(kHour, 4.0 * kHour);
  ASSERT_GT(sensed.size(), 10u);
  double sum = 0.0;
  for (const Sample& s : sensed.samples()) sum += s.value;
  double mean_cpu = sum / static_cast<double>(sensed.size());
  EXPECT_GT(mean_cpu, 30.0);
  EXPECT_LT(mean_cpu, 85.0);

  // 3) Data keeps flowing end to end: aggregates persisted, few drops.
  EXPECT_GT(mf->flow->table().ItemCount(), 100u);
  double drop_rate =
      static_cast<double>(mf->flow->generator()->total_dropped()) /
      static_cast<double>(mf->flow->generator()->total_generated());
  EXPECT_LT(drop_rate, 0.05);
}

TEST(EndToEndTest, ElasticityFollowsLoadUpAndDown) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  // Step load: low → high at t=1h → low again at t=2h.
  auto arrival = std::make_shared<workload::StepArrival>(
      std::vector<std::pair<SimTime, double>>{
          {0.0, 200.0}, {1.0 * kHour, 1200.0}, {2.0 * kHour, 200.0}});
  auto mf = FlowBuilder()
                .WithFlowConfig(BaseFlow())
                .WithWorkload(arrival, Wl())
                .WithSeed(23)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());

  sim.RunUntil(3.5 * kHour);

  // Compare time-averaged analytics actuations per phase: at low load
  // the loop limit-cycles around the quantization floor (worker counts
  // bounce between ~1 and ~10), so instantaneous worker counts are
  // phase-sensitive; the phase averages are not.
  auto state = mf->manager->GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  auto mean_u = [&](SimTime t0, SimTime t1) {
    TimeSeries w = (*state)->actuations().Window(t0, t1);
    EXPECT_GT(w.size(), 5u);
    double sum = 0.0;
    for (const Sample& s : w.samples()) sum += s.value;
    return sum / std::max<double>(1.0, static_cast<double>(w.size()));
  };
  double workers_low1 = mean_u(0.4 * kHour, 0.9 * kHour);
  double workers_high = mean_u(1.4 * kHour, 1.9 * kHour);
  double workers_low2 = mean_u(2.8 * kHour, 3.5 * kHour);

  EXPECT_GT(workers_high, 1.5 * workers_low1);  // Scaled out under load...
  EXPECT_LT(workers_low2, 0.7 * workers_high);  // ...and back in afterwards.
}

TEST(EndToEndTest, DependencyAnalysisFindsIngestionAnalyticsCoupling) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  flow::FlowConfig cfg = BaseFlow();
  cfg.stream.initial_shards = 8;  // Static, ample.
  cfg.initial_workers = 24;  // Below CPU saturation even at peak load.
  // Observation run (paper Fig. 2): elasticity off, workload varying.
  auto flow = flow::DataAnalyticsFlow::Create(&sim, &metrics, cfg)
                  .MoveValueOrDie();
  auto arrival = std::make_shared<workload::DiurnalArrival>(
      1500.0, 1200.0, 1.5 * kHour);
  ASSERT_TRUE(flow->AttachWorkload(arrival, Wl(), 31).ok());
  sim.RunUntil(3.0 * kHour);

  DependencyAnalyzer analyzer;
  LayerMetric in{Layer::kIngestion,
                 {"Flower/Kinesis", "IncomingRecords", "clickstream"}};
  LayerMetric cpu{Layer::kAnalytics,
                  {"Flower/Storm", "CpuUtilization", "storm"}};
  auto dep = analyzer.Analyze(metrics, in, cpu, 0.0, 3.0 * kHour);
  ASSERT_TRUE(dep.ok());
  EXPECT_TRUE(dep->significant);
  EXPECT_GT(dep->fit.correlation, 0.9);  // Paper reports 0.95.
  EXPECT_GT(dep->fit.slope, 0.0);
}

TEST(EndToEndTest, ShareBoundsFromOptimizerCapTheControllers) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto mf = FlowBuilder()
                .WithFlowConfig(BaseFlow())
                .WithWorkload(
                    std::make_shared<workload::ConstantArrival>(3000.0), Wl())
                .WithSeed(41)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());

  // Resource-share analysis (Eq. 3–5) on a tight budget.
  ResourceShareRequest req;
  req.hourly_budget_usd = 0.8;
  req.bounds[0] = {1.0, 40.0};
  req.bounds[1] = {1.0, 20.0};
  req.bounds[2] = {1.0, 400.0};
  ResourceShareAnalyzer analyzer;
  auto res = analyzer.AnalyzeExhaustive(req);
  ASSERT_TRUE(res.ok());
  auto max_shares = ResourceShareAnalyzer::MaxShares(*res);
  ASSERT_TRUE(max_shares.ok());
  for (int i = 0; i < kNumLayers; ++i) {
    ASSERT_TRUE(mf->manager
                    ->SetShareUpperBound(static_cast<Layer>(i),
                                         max_shares->shares[i])
                    .ok());
  }
  sim.RunUntil(2.0 * kHour);
  // The analytics layer is overloaded but must respect the share cap.
  EXPECT_LE(mf->flow->cluster().requested_worker_count(),
            static_cast<int>(max_shares->analytics()));
}

TEST(EndToEndTest, MonitorShowsAllThreePlatformsInOneView) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto mf = FlowBuilder()
                .WithFlowConfig(BaseFlow())
                .WithWorkload(
                    std::make_shared<workload::ConstantArrival>(400.0), Wl())
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  sim.RunUntil(kHour);
  // The services publish exactly the series some program reads, one
  // datapoint per series per minute.
  std::vector<std::string> ids;
  for (const cloudwatch::MetricId& id : metrics.ListMetrics()) {
    ids.push_back(id.ToString());
  }
  const std::vector<std::string> kPublished = {
      "Flower/DynamoDB/ConsumedWriteCapacityUnits{aggregates}",
      "Flower/DynamoDB/ProvisionedWriteCapacityUnits{aggregates}",
      "Flower/DynamoDB/WriteUtilization{aggregates}",
      "Flower/Kinesis/IncomingRecords{clickstream}",
      "Flower/Kinesis/ShardCount{clickstream}",
      "Flower/Kinesis/ThrottledRecords{clickstream}",
      "Flower/Kinesis/WriteUtilization{clickstream}",
      "Flower/Storm/CompleteLatency{storm}",
      "Flower/Storm/CompleteLatencyP99{storm}",
      "Flower/Storm/CpuUtilization{storm}",
      "Flower/Storm/WorkerCount{storm}"};
  EXPECT_EQ(ids, kPublished);
  EXPECT_EQ(metrics.total_datapoints(), 11u * 60u);
  CrossPlatformMonitor monitor(&metrics);
  monitor.WatchNamespace("Flower/Kinesis");
  monitor.WatchNamespace("Flower/Storm");
  monitor.WatchNamespace("Flower/DynamoDB");
  EXPECT_EQ(monitor.watched_count(), kPublished.size());
  std::ostringstream os;
  monitor.RenderDashboard(os, 0.0, kHour);
  std::string s = os.str();
  EXPECT_NE(s.find("Flower/Kinesis"), std::string::npos);
  EXPECT_NE(s.find("Flower/Storm"), std::string::npos);
  EXPECT_NE(s.find("Flower/DynamoDB"), std::string::npos);
}

TEST(EndToEndTest, DayLongSoakStaysHealthy) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  // 24 simulated hours of diurnal load with a nightly trough.
  auto arrival =
      std::make_shared<workload::DiurnalArrival>(300.0, 250.0, kDay);
  workload::ClickStreamConfig wl = Wl();
  auto mf = FlowBuilder()
                .WithFlowConfig(BaseFlow())
                .WithWorkload(arrival, wl)
                .WithSeed(2026)
                .Build(&sim, &metrics);
  ASSERT_TRUE(mf.ok());
  sim.RunUntil(kDay);

  // The flow is still live and healthy after a full day:
  // (1) bounded ingestion backlog (the pipeline keeps up);
  EXPECT_LT(mf->flow->stream().BacklogRecords(), 200000u);
  EXPECT_LT(mf->flow->stream().OldestRecordAgeSec(), 10.0 * kMinute);
  // (2) negligible data loss across the whole day;
  double drop_rate =
      static_cast<double>(mf->flow->generator()->total_dropped()) /
      std::max<double>(1.0, static_cast<double>(
                                mf->flow->generator()->total_generated()));
  EXPECT_LT(drop_rate, 0.02);
  // (3) the controllers kept working to the end (actuations in the
  //     final hour) with few failures;
  auto analytics = mf->manager->GetState(Layer::kAnalytics);
  ASSERT_TRUE(analytics.ok());
  EXPECT_FALSE(
      (*analytics)->actuations().Window(23.0 * kHour, kDay).empty());
  EXPECT_EQ((*analytics)->actuation_failures(), 0u);
  // (4) metric storage grows linearly with time, not with load: each
  //     service publishes a fixed set of series once per period.
  double periods = kDay / 60.0;
  EXPECT_LT(static_cast<double>(metrics.total_datapoints()),
            40.0 * periods);
}

TEST(EndToEndTest, FullPipelineIsDeterministic) {
  auto run = [] {
    sim::Simulation sim;
    cloudwatch::MetricStore metrics;
    auto mf = FlowBuilder()
                  .WithFlowConfig(BaseFlow())
                  .WithWorkload(
                      std::make_shared<workload::ConstantArrival>(600.0),
                      Wl())
                  .WithSeed(77)
                  .Build(&sim, &metrics);
    EXPECT_TRUE(mf.ok());
    sim.RunUntil(kHour);
    return std::make_tuple(mf->flow->generator()->total_generated(),
                           mf->flow->cluster().total_acked(),
                           mf->flow->cluster().worker_count(),
                           mf->flow->table().ItemCount());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace flower::core
