#include "storm/cluster.h"

#include <gtest/gtest.h>

#include <deque>

namespace flower::storm {
namespace {

ec2::InstanceType SmallVm() {
  // 10,000 work units/s per VM keeps the arithmetic easy.
  return {"test.small", 1, 1.0e4, 0.05};
}

ClusterConfig TestConfig() {
  ClusterConfig cfg;
  cfg.name = "storm";
  cfg.tick_period_sec = 1.0;
  cfg.spout_batch_limit = 10000;
  cfg.max_pending_tuples = 100000;
  cfg.usable_capacity_fraction = 1.0;
  return cfg;
}

// A spout backed by an explicit queue the test controls.
struct QueueSpout {
  std::deque<Tuple> q;
  SpoutFn Fn() {
    return [this](size_t max, std::vector<Tuple>* out) {
      size_t limit = out->size() + max;
      while (!q.empty() && out->size() < limit) {
        out->push_back(q.front());
        q.pop_front();
      }
    };
  }
  void Push(int n, double cost_hint = 0.0) {
    (void)cost_hint;
    for (int i = 0; i < n; ++i) q.push_back(Tuple{});
  }
};

std::shared_ptr<Topology> OneBoltTopology(QueueSpout* spout,
                                          double bolt_cost,
                                          double spout_cost = 0.0) {
  auto topo = std::make_shared<Topology>("t");
  EXPECT_TRUE(topo->SetSpout("spout", spout->Fn(), spout_cost).ok());
  BoltSpec spec;
  spec.name = "work";
  spec.cpu_cost_per_tuple = bolt_cost;
  spec.logic = std::make_shared<StatelessBolt>(1.0);
  EXPECT_TRUE(topo->AddBolt(std::move(spec)).ok());
  return topo;
}

TEST(ClusterTest, SubmitValidation) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  EXPECT_FALSE(cluster.Submit(nullptr).ok());
  auto no_spout = std::make_shared<Topology>("empty");
  EXPECT_FALSE(cluster.Submit(no_spout).ok());
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  EXPECT_EQ(cluster.Submit(OneBoltTopology(&spout, 100.0)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ClusterTest, SubmittedTopologyRefusesNewBolts) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  QueueSpout spout;
  auto topo = OneBoltTopology(&spout, 100.0);
  ASSERT_TRUE(cluster.Submit(topo).ok());
  BoltSpec late;
  late.name = "late";
  late.logic = std::make_shared<StatelessBolt>(1.0);
  EXPECT_EQ(topo->AddBolt(std::move(late), "work").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(topo->bolt_count(), 1u);
}

TEST(ClusterTest, ProcessesAllTuplesUnderLightLoad) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 2, 10.0);  // 20k wu/s.
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  spout.Push(50);  // 5k wu: fits in one tick.
  sim.RunUntil(3.0);
  EXPECT_EQ(cluster.total_executed(), 50u);
  EXPECT_EQ(cluster.total_acked(), 50u);
  EXPECT_EQ(cluster.topology()->PendingTuples(), 0u);
}

TEST(ClusterTest, CpuUtilizationReflectsOfferedLoad) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 10.0);  // 10k wu/s.
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  // 50 tuples/s * 100 wu = 5k wu/s against 10k budget → ~50% CPU.
  ASSERT_TRUE(sim.SchedulePeriodic(0.5, 1.0, [&] {
    spout.Push(50);
    return sim.Now() < 20.0;
  }).ok());
  sim.RunUntil(20.0);
  EXPECT_NEAR(cluster.LastTickCpuUtilizationPct(), 50.0, 5.0);
}

TEST(ClusterTest, OverloadSaturatesCpuAndGrowsQueue) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 10.0);  // 10k wu/s.
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  // 300 tuples/s * 100 wu = 30k wu/s against 10k: 3x overload.
  ASSERT_TRUE(sim.SchedulePeriodic(0.5, 1.0, [&] {
    spout.Push(300);
    return sim.Now() < 30.0;
  }).ok());
  sim.RunUntil(30.0);
  EXPECT_GT(cluster.LastTickCpuUtilizationPct(), 95.0);
  EXPECT_GT(cluster.topology()->PendingTuples(), 1000u);
}

TEST(ClusterTest, ScalingOutRestoresThroughput) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 5.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  ASSERT_TRUE(sim.SchedulePeriodic(0.5, 1.0, [&] {
    spout.Push(300);  // Needs 3 VMs.
    return sim.Now() < 60.0;
  }).ok());
  sim.RunUntil(20.0);
  EXPECT_GT(cluster.LastTickCpuUtilizationPct(), 95.0);
  ASSERT_TRUE(cluster.SetWorkerCount(5).ok());
  sim.RunUntil(60.0);
  // 5 VMs → 50k wu/s against 30k offered: below saturation, queue
  // drains.
  EXPECT_LT(cluster.LastTickCpuUtilizationPct(), 90.0);
  EXPECT_LT(cluster.topology()->PendingTuples(), 500u);
}

TEST(ClusterTest, BackpressureStopsSpoutPull) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 10.0);
  ClusterConfig cfg = TestConfig();
  cfg.max_pending_tuples = 200;
  Cluster cluster(&sim, nullptr, &fleet, cfg);
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 1000.0)).ok());
  spout.Push(100000);
  sim.RunUntil(5.0);
  // The topology never holds much more than max_pending; the rest stays
  // in the spout's source.
  EXPECT_LE(cluster.topology()->PendingTuples(), 400u);
  EXPECT_GT(spout.q.size(), 90000u);
}

TEST(ClusterTest, ZeroWorkersMeansFullSaturation) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 0, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  spout.Push(10);
  sim.RunUntil(3.0);
  EXPECT_DOUBLE_EQ(cluster.LastTickCpuUtilizationPct(), 100.0);
  EXPECT_EQ(cluster.total_executed(), 0u);
}

TEST(ClusterTest, SetWorkerCountValidation) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 1, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  EXPECT_FALSE(cluster.SetWorkerCount(0).ok());
  EXPECT_TRUE(cluster.SetWorkerCount(3).ok());
}

TEST(ClusterTest, MultiSpoutTuplesTaggedWithSource) {
  // A recording bolt that tallies tuples per source stream.
  class SourceTally final : public BoltLogic {
   public:
    Status Execute(const Tuple& t, SimTime,
                   const std::function<void(Tuple)>&) override {
      if (t.source == 0) ++from0_;
      else ++from1_;
      return Status::OK();
    }
    int from0_ = 0, from1_ = 0;
  };
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 4, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  auto topo = std::make_shared<Topology>("join");
  QueueSpout clicks, impressions;
  ASSERT_TRUE(topo->AddSpout("clicks", clicks.Fn(), 0.0).ok());
  ASSERT_TRUE(topo->AddSpout("impressions", impressions.Fn(), 0.0).ok());
  auto tally = std::make_shared<SourceTally>();
  BoltSpec spec;
  spec.name = "tally";
  spec.cpu_cost_per_tuple = 10.0;
  spec.logic = tally;
  ASSERT_TRUE(topo->AddBolt(std::move(spec),
                            std::vector<std::string>{"clicks",
                                                     "impressions"}).ok());
  ASSERT_TRUE(cluster.Submit(topo).ok());
  clicks.Push(30);
  impressions.Push(70);
  sim.RunUntil(5.0);
  EXPECT_EQ(tally->from0_, 30);
  EXPECT_EQ(tally->from1_, 70);
  EXPECT_EQ(cluster.total_acked(), 100u);
}

TEST(ClusterTest, FanOutDeliversToAllChildren) {
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 4, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  auto topo = std::make_shared<Topology>("fanout");
  QueueSpout spout;
  ASSERT_TRUE(topo->AddSpout("src", spout.Fn(), 0.0).ok());
  BoltSpec a;
  a.name = "branch-a";
  a.cpu_cost_per_tuple = 10.0;
  a.logic = std::make_shared<StatelessBolt>(1.0);
  ASSERT_TRUE(topo->AddBolt(std::move(a), "src").ok());
  BoltSpec b;
  b.name = "branch-b";
  b.cpu_cost_per_tuple = 10.0;
  b.logic = std::make_shared<StatelessBolt>(1.0);
  ASSERT_TRUE(topo->AddBolt(std::move(b), "src").ok());
  ASSERT_TRUE(cluster.Submit(topo).ok());
  spout.Push(25);
  sim.RunUntil(5.0);
  // Every tuple runs through both branches: 50 executions, 50 acks.
  EXPECT_EQ(cluster.total_executed(), 50u);
  EXPECT_EQ(cluster.total_acked(), 50u);
}

TEST(ClusterTest, SinkThrottleRequeuesTuple) {
  // Bolt logic that throttles the first 5 calls.
  class FlakySink final : public BoltLogic {
   public:
    Status Execute(const Tuple&, SimTime,
                   const std::function<void(Tuple)>&) override {
      if (++calls_ <= 5) return Status::Throttled("sink full");
      return Status::OK();
    }
    int calls_ = 0;
  };
  sim::Simulation sim;
  ec2::Fleet fleet(&sim, SmallVm(), 2, 10.0);
  Cluster cluster(&sim, nullptr, &fleet, TestConfig());
  auto topo = std::make_shared<Topology>("t");
  QueueSpout spout;
  ASSERT_TRUE(topo->SetSpout("spout", spout.Fn(), 0.0).ok());
  BoltSpec spec;
  spec.name = "sink";
  spec.cpu_cost_per_tuple = 10.0;
  spec.logic = std::make_shared<FlakySink>();
  ASSERT_TRUE(topo->AddBolt(std::move(spec)).ok());
  ASSERT_TRUE(cluster.Submit(topo).ok());
  spout.Push(3);
  sim.RunUntil(10.0);
  // All 3 tuples eventually processed despite 5 throttled attempts.
  EXPECT_EQ(cluster.total_acked(), 3u);
  EXPECT_EQ(cluster.total_sink_throttles(), 5u);
}

TEST(ClusterTest, PublishesPerBoltMetrics) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ec2::Fleet fleet(&sim, SmallVm(), 2, 10.0);
  ClusterConfig cfg = TestConfig();
  cfg.metrics_period_sec = 60.0;
  cfg.cost_jitter = 0.0;
  Cluster cluster(&sim, &metrics, &fleet, cfg);
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  ASSERT_TRUE(sim.SchedulePeriodic(0.5, 1.0, [&] {
    spout.Push(50);
    return sim.Now() < 180.0;
  }).ok());
  sim.RunUntil(181.0);
  cloudwatch::MetricId executed{"Flower/Storm", "BoltExecuted",
                                "storm.work"};
  auto sum = metrics.GetStatistic(executed, 0, 181,
                                  cloudwatch::Statistic::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(*sum, 180.0 * 50.0, 200.0);
  cloudwatch::MetricId capacity{"Flower/Storm", "BoltCapacity",
                                "storm.work"};
  auto cap = metrics.GetStatistic(capacity, 0, 181,
                                  cloudwatch::Statistic::kAverage);
  ASSERT_TRUE(cap.ok());
  // 50 tuples * 100 wu per 20k budget/tick = 25% of the budget.
  EXPECT_NEAR(*cap, 0.25, 0.05);
  cloudwatch::MetricId qlen{"Flower/Storm", "BoltQueueLength",
                            "storm.work"};
  EXPECT_TRUE(metrics
                  .GetStatistic(qlen, 0, 181,
                                cloudwatch::Statistic::kMaximum)
                  .ok());
}

TEST(ClusterTest, PublishesMetrics) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ec2::Fleet fleet(&sim, SmallVm(), 2, 10.0);
  ClusterConfig cfg = TestConfig();
  cfg.metrics_period_sec = 60.0;
  Cluster cluster(&sim, &metrics, &fleet, cfg);
  QueueSpout spout;
  ASSERT_TRUE(cluster.Submit(OneBoltTopology(&spout, 100.0)).ok());
  ASSERT_TRUE(sim.SchedulePeriodic(0.5, 1.0, [&] {
    spout.Push(50);
    return sim.Now() < 300.0;
  }).ok());
  sim.RunUntil(301.0);
  cloudwatch::MetricId cpu{"Flower/Storm", "CpuUtilization", "storm"};
  auto avg = metrics.GetStatistic(cpu, 0, 301, cloudwatch::Statistic::kAverage);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 25.0, 5.0);  // 5k wu/s on 20k capacity.
  cloudwatch::MetricId workers{"Flower/Storm", "WorkerCount", "storm"};
  EXPECT_DOUBLE_EQ(
      *metrics.GetStatistic(workers, 0, 301, cloudwatch::Statistic::kMaximum),
      2.0);
}

}  // namespace
}  // namespace flower::storm
