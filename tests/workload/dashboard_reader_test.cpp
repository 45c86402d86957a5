#include "workload/dashboard_reader.h"

#include <gtest/gtest.h>

namespace flower::workload {
namespace {

dynamodb::TableConfig BigTable(double rcu = 1000.0) {
  dynamodb::TableConfig cfg;
  cfg.initial_rcu = rcu;
  cfg.initial_wcu = 1000.0;
  cfg.burst_window_sec = 1.0;
  return cfg;
}

void Seed(dynamodb::Table* table, int64_t n) {
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(table->PutItem(k, 42.0, 100).ok());
  }
}

TEST(DashboardReaderTest, ReadsTopKEveryPeriod) {
  sim::Simulation sim;
  dynamodb::Table table(&sim, nullptr, BigTable());
  Seed(&table, 50);
  DashboardReaderConfig cfg;
  cfg.top_k = 50;
  cfg.period_sec = 5.0;
  DashboardReader reader(&sim, &table, cfg);
  sim.RunUntil(51.0);
  // 10 refreshes x 50 keys.
  EXPECT_EQ(reader.total_reads(), 500u);
  EXPECT_EQ(reader.read_misses(), 0u);
  EXPECT_EQ(reader.throttled_reads(), 0u);
}

TEST(DashboardReaderTest, MissingKeysCountedAsMisses) {
  sim::Simulation sim;
  dynamodb::Table table(&sim, nullptr, BigTable());
  Seed(&table, 10);  // Only 10 of the top 50 exist.
  DashboardReaderConfig cfg;
  cfg.top_k = 50;
  cfg.period_sec = 5.0;
  DashboardReader reader(&sim, &table, cfg);
  sim.RunUntil(6.0);
  EXPECT_EQ(reader.total_reads(), 50u);
  EXPECT_EQ(reader.read_misses(), 40u);
}

TEST(DashboardReaderTest, ThrottleAbandonsRefreshCycle) {
  sim::Simulation sim;
  dynamodb::Table table(&sim, nullptr, BigTable(/*rcu=*/2.0));
  Seed(&table, 50);
  DashboardReaderConfig cfg;
  cfg.top_k = 50;
  cfg.period_sec = 5.0;
  DashboardReader reader(&sim, &table, cfg);
  sim.RunUntil(6.0);
  // ~2 RCU banked + trickle: far fewer than 50 reads succeed; the
  // cycle stops at the first throttle.
  EXPECT_GE(reader.throttled_reads(), 1u);
  EXPECT_LT(reader.total_reads(), 50u);
}

TEST(DashboardReaderTest, MultipleViewersMultiplyLoad) {
  sim::Simulation sim;
  dynamodb::Table table(&sim, nullptr, BigTable());
  Seed(&table, 20);
  DashboardReaderConfig cfg;
  cfg.top_k = 20;
  cfg.period_sec = 10.0;
  cfg.viewers = 4;
  DashboardReader reader(&sim, &table, cfg);
  sim.RunUntil(100.0);
  // ~9-10 refreshes per viewer x 4 viewers x 20 keys.
  EXPECT_NEAR(static_cast<double>(reader.total_reads()), 4 * 9.5 * 20,
              100.0);
}

TEST(DashboardReaderTest, StopHaltsReads) {
  sim::Simulation sim;
  dynamodb::Table table(&sim, nullptr, BigTable());
  Seed(&table, 10);
  DashboardReaderConfig cfg;
  cfg.top_k = 10;
  cfg.period_sec = 5.0;
  DashboardReader reader(&sim, &table, cfg);
  sim.RunUntil(20.0);
  uint64_t at_stop = reader.total_reads();
  reader.Stop();
  sim.RunUntil(60.0);
  EXPECT_EQ(reader.total_reads(), at_stop);
}

}  // namespace
}  // namespace flower::workload
