#include "dynamodb/table.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"

namespace flower::dynamodb {
namespace {

TableConfig TestConfig(double wcu = 10.0, double rcu = 10.0) {
  TableConfig cfg;
  cfg.name = "aggregates";
  cfg.initial_wcu = wcu;
  cfg.initial_rcu = rcu;
  cfg.min_wcu = 1.0;
  cfg.max_wcu = 1000.0;
  cfg.min_rcu = 1.0;
  cfg.max_rcu = 1000.0;
  cfg.provisioning_delay_sec = 30.0;
  cfg.burst_window_sec = 1.0;  // Tight burst for predictable tests.
  return cfg;
}

TEST(TableTest, PutAndGetItemRoundTrip) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  ASSERT_TRUE(table.PutItem(42, 1234.5, 100).ok());
  auto v = table.GetItem(42, 100);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1234.5);
  EXPECT_EQ(table.ItemCount(), 1u);
}

TEST(TableTest, OverwriteKeepsSingleItem) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  ASSERT_TRUE(table.PutItem(1, 3.0, 100).ok());
  ASSERT_TRUE(table.PutItem(1, 1.0 / 3.0, 100).ok());
  EXPECT_EQ(table.ItemCount(), 1u);
  EXPECT_EQ(*table.GetItem(1, 100), 1.0 / 3.0);  // Stored exactly.
}

TEST(TableTest, MissingKeyIsNotFound) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  EXPECT_EQ(table.GetItem(9, 100).status().code(), StatusCode::kNotFound);
}

TEST(TableTest, InvalidSizesRejected) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  EXPECT_FALSE(table.PutItem(1, 1.0, 0).ok());
  EXPECT_FALSE(table.GetItem(1, -5).ok());
}

TEST(TableTest, WritesThrottleBeyondProvisionedCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  // Burst window 1 s → 10 banked WCU; small items cost 1 WCU each.
  int ok = 0, throttled = 0;
  for (int i = 0; i < 30; ++i) {
    Status st = table.PutItem(i, 1.0, 100);
    if (st.ok()) ++ok;
    else if (st.IsThrottled()) ++throttled;
  }
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(throttled, 20);
  EXPECT_EQ(table.total_throttled_writes(), 20u);
}

TEST(TableTest, LargeItemsConsumeMoreCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  // A 3.5 KiB item costs ceil(3.5) = 4 WCU.
  ASSERT_TRUE(table.PutItem(1, 1.0, 3584).ok());
  ASSERT_TRUE(table.PutItem(2, 1.0, 3584).ok());
  // 8 consumed; a third 4-WCU write exceeds the 10 banked.
  EXPECT_TRUE(table.PutItem(3, 1.0, 3584).IsThrottled());
}

TEST(TableTest, ReadsUse4KiBUnits) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0, 2.0));
  ASSERT_TRUE(table.PutItem(1, 1.0, 100).ok());
  // 2 banked RCU; an 8 KiB read costs 2 RCU.
  ASSERT_TRUE(table.GetItem(1, 8192).ok());
  EXPECT_TRUE(table.GetItem(1, 100).status().IsThrottled());
}

TEST(TableTest, TokensRefillAtProvisionedRate) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(table.PutItem(i, 1.0, 100).ok());
  EXPECT_TRUE(table.PutItem(99, 1.0, 100).IsThrottled());
  sim.RunUntil(0.5);  // Refills 5 WCU.
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    if (table.PutItem(100 + i, 1.0, 100).ok()) ++ok;
  }
  EXPECT_EQ(ok, 5);
}

TEST(TableTest, UpdateItemAddImplementsAtomicCounter) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(100.0));
  auto v1 = table.UpdateItemAdd(7, 3.0, 100);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(*v1, 3.0);  // Missing item starts from 0.
  auto v2 = table.UpdateItemAdd(7, 2.5, 100);
  ASSERT_TRUE(v2.ok());
  EXPECT_DOUBLE_EQ(*v2, 5.5);
  auto stored = table.GetItem(7, 100);
  ASSERT_TRUE(stored.ok());
  EXPECT_DOUBLE_EQ(*stored, 5.5);
}

TEST(TableTest, UpdateItemAddAccumulatesInPlace) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(100.0));
  ASSERT_TRUE(table.PutItem(3, 0.5, 100).ok());
  double expected = 0.5;
  for (int i = 0; i < 10; ++i) {
    expected += 0.1;
    auto v = table.UpdateItemAdd(3, 0.1, 100);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, expected);  // Exact: no text round trip between adds.
  }
  EXPECT_EQ(*table.GetItem(3, 100), expected);
  EXPECT_EQ(table.ItemCount(), 1u);
}

TEST(TableTest, UpdateItemAddConsumesWriteCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(5.0));
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    if (table.UpdateItemAdd(1, 1.0, 100).ok()) ++ok;
  }
  EXPECT_EQ(ok, 5);  // 5 banked WCU (1 s burst window).
}

TEST(TableTest, DeleteItemIsIdempotentAndBilled) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(100.0));
  ASSERT_TRUE(table.PutItem(1, 1.0, 100).ok());
  EXPECT_EQ(table.ItemCount(), 1u);
  ASSERT_TRUE(table.DeleteItem(1, 100).ok());
  EXPECT_EQ(table.ItemCount(), 0u);
  ASSERT_TRUE(table.DeleteItem(1, 100).ok());  // Missing key: still OK.
  EXPECT_EQ(table.GetItem(1, 100).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table.total_writes(), 3u);  // All three consumed capacity.
}

TEST(TableTest, DeleteItemThrottlesWithoutCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(2.0));
  ASSERT_TRUE(table.PutItem(1, 1.0, 100).ok());
  ASSERT_TRUE(table.PutItem(2, 1.0, 100).ok());
  EXPECT_TRUE(table.DeleteItem(1, 100).IsThrottled());
}

TEST(TableTest, ProvisioningChangeAppliesAfterDelay) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  ASSERT_TRUE(table.SetProvisionedThroughput(100.0, 10.0).ok());
  EXPECT_TRUE(table.provisioning_in_flight());
  EXPECT_DOUBLE_EQ(table.provisioned_wcu(), 10.0);
  sim.RunUntil(31.0);
  EXPECT_DOUBLE_EQ(table.provisioned_wcu(), 100.0);
  EXPECT_FALSE(table.provisioning_in_flight());
}

TEST(TableTest, ProvisioningBoundsEnforced) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  EXPECT_FALSE(table.SetProvisionedThroughput(0.5, 10.0).ok());
  EXPECT_FALSE(table.SetProvisionedThroughput(10.0, 2000.0).ok());
}

TEST(TableTest, DailyDecreaseLimit) {
  sim::Simulation sim;
  TableConfig cfg = TestConfig(100.0);
  cfg.max_decreases_per_day = 2;
  Table table(&sim, nullptr, cfg);
  ASSERT_TRUE(table.SetProvisionedThroughput(90.0, 10.0).ok());
  sim.RunUntil(40.0);
  ASSERT_TRUE(table.SetProvisionedThroughput(80.0, 10.0).ok());
  sim.RunUntil(80.0);
  // Third decrease within the same simulated day: rejected.
  Status st = table.SetProvisionedThroughput(70.0, 10.0);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // Increases are always allowed.
  EXPECT_TRUE(table.SetProvisionedThroughput(200.0, 10.0).ok());
}

TEST(TableTest, DecreaseLimitResetsNextDay) {
  sim::Simulation sim;
  TableConfig cfg = TestConfig(100.0);
  cfg.max_decreases_per_day = 1;
  Table table(&sim, nullptr, cfg);
  ASSERT_TRUE(table.SetProvisionedThroughput(90.0, 10.0).ok());
  sim.RunUntil(40.0);
  EXPECT_FALSE(table.SetProvisionedThroughput(80.0, 10.0).ok());
  sim.RunUntil(86401.0);  // Next simulated day.
  EXPECT_TRUE(table.SetProvisionedThroughput(80.0, 10.0).ok());
}

TEST(TableTest, SupersedingProvisioningChangeWins) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  ASSERT_TRUE(table.SetProvisionedThroughput(100.0, 10.0).ok());
  sim.RunUntil(10.0);
  ASSERT_TRUE(table.SetProvisionedThroughput(50.0, 10.0).ok());
  sim.RunUntil(100.0);
  EXPECT_DOUBLE_EQ(table.provisioned_wcu(), 50.0);
}

TEST(TableTest, PublishesMetrics) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  TableConfig cfg = TestConfig(20.0);
  cfg.metrics_period_sec = 60.0;
  Table table(&sim, &metrics, cfg);
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    for (int i = 0; i < 10; ++i) {
      (void)table.PutItem(i, 1.0, 100);
    }
    return sim.Now() < 300.0;
  }).ok());
  sim.RunUntil(301.0);
  cloudwatch::MetricId util{"Flower/DynamoDB", "WriteUtilization",
                            "aggregates"};
  auto u = metrics.GetStatistic(util, 0, 301,
                                cloudwatch::Statistic::kAverage);
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR(*u, 50.0, 5.0);  // 10 WCU/s consumed of 20 provisioned.
  cloudwatch::MetricId items{"Flower/DynamoDB", "ItemCount", "aggregates"};
  EXPECT_GT(*metrics.GetStatistic(items, 0, 301,
                                  cloudwatch::Statistic::kMaximum),
            5.0);
}

// Many keys, with puts, update-adds and deletes interleaved: the table
// holds exactly what a std::map given the same writes holds.
TEST(TableTest, ManyKeysMatchMapReference) {
  sim::Simulation sim;
  TableConfig cfg;
  cfg.initial_wcu = 40000.0;
  cfg.initial_rcu = 40000.0;
  Table table(&sim, nullptr, cfg);
  std::map<int64_t, double> ref;
  Rng rng(5);
  auto key = [&rng] {
    return rng.Bernoulli(0.5) ? rng.UniformInt(-3000, 3000)
                              : rng.UniformInt(INT64_MIN / 2, INT64_MAX / 2);
  };
  for (int op = 0; op < 20000; ++op) {
    if (op % 1000 == 0) sim.RunUntil(sim.Now() + 1.0);
    int64_t k = key();
    double v = rng.Uniform(-10.0, 10.0);
    switch (rng.UniformInt(0, 2)) {
      case 0:
        ASSERT_TRUE(table.PutItem(k, v, 128).ok());
        ref[k] = v;
        break;
      case 1: {
        auto got = table.UpdateItemAdd(k, v, 128);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, ref[k] += v);
        break;
      }
      default:
        ASSERT_TRUE(table.DeleteItem(k, 128).ok());
        ref.erase(k);
        break;
    }
    ASSERT_EQ(table.ItemCount(), ref.size());
  }
  EXPECT_GT(ref.size(), 1000u);
  for (const auto& [k, v] : ref) {
    auto got = table.GetItem(k, 128);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(table.GetItem(3001, 128).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace flower::dynamodb
