#include "cloudwatch/metric_store.h"

#include <gtest/gtest.h>

namespace flower::cloudwatch {
namespace {

const MetricId kCpu{"Flower/Storm", "CpuUtilization", "storm"};
const MetricId kRecords{"Flower/Kinesis", "IncomingRecords", "clicks"};

TEST(MetricStoreTest, PutAndGetSeries) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 0.0, 10.0).ok());
  ASSERT_TRUE(store.Put(kCpu, 60.0, 20.0).ok());
  auto series = store.GetSeries(kCpu);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ((*series)->size(), 2u);
  EXPECT_EQ(store.metric_count(), 1u);
  EXPECT_EQ(store.total_datapoints(), 2u);
}

TEST(MetricStoreTest, UnknownMetricIsNotFound) {
  MetricStore store;
  EXPECT_EQ(store.GetSeries(kCpu).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.GetStatistic(kCpu, 0, 100, Statistic::kAverage)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(MetricStoreTest, NonMonotonicPutRejected) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 100.0, 1.0).ok());
  Status st = store.Put(kCpu, 50.0, 2.0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The store names the metric; its series has no name of its own.
  EXPECT_NE(st.message().find(kCpu.ToString()), std::string::npos)
      << st.message();
}

TEST(MetricStoreTest, StatisticsOverWindow) {
  MetricStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Put(kCpu, i * 60.0, static_cast<double>(i)).ok());
  }
  // Trailing window (120, 360] covers values 3, 4, 5, 6.
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 120, 360, Statistic::kAverage),
                   4.5);
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 120, 360, Statistic::kSum),
                   18.0);
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 120, 360, Statistic::kMinimum),
                   3.0);
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 120, 360, Statistic::kMaximum),
                   6.0);
  EXPECT_DOUBLE_EQ(
      *store.GetStatistic(kCpu, 120, 360, Statistic::kSampleCount), 4.0);
}

// Pins the trailing-window boundary contract: (t0, t1] — a datapoint
// stamped exactly at the window end is included, one stamped exactly at
// the window start is not.
TEST(MetricStoreTest, WindowIsLeftOpenRightClosed) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 60.0, 1.0).ok());
  ASSERT_TRUE(store.Put(kCpu, 120.0, 2.0).ok());
  // Sample at t1 == 120 is visible to a query ending at 120.
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 60, 120, Statistic::kSum), 2.0);
  // Sample at t0 == 120 is NOT re-counted by the next window.
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 0, 120, Statistic::kSum), 3.0);
  EXPECT_EQ(
      store.GetStatistic(kCpu, 120, 180, Statistic::kSum).status().code(),
      StatusCode::kNotFound);
}

// A control loop stepping every `period` with window == period issues
// back-to-back queries (t - period, t]; an edge datapoint must be
// counted by exactly one of them.
TEST(MetricStoreTest, ConsecutiveWindowsCountEdgeDatapointOnce) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 120.0, 5.0).ok());
  double counted = 0.0;
  for (double now : {60.0, 120.0, 180.0, 240.0}) {
    counted += store.GetStatistic(kCpu, now - 60.0, now,
                                  Statistic::kSampleCount)
                   .ValueOr(0.0);
  }
  EXPECT_DOUBLE_EQ(counted, 1.0);
}

TEST(MetricStoreTest, PercentileStatistics) {
  MetricStore store;
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(store.Put(kCpu, i, static_cast<double>(i)).ok());
  }
  EXPECT_NEAR(*store.GetStatistic(kCpu, 0, 1000, Statistic::kP50), 50.5,
              0.01);
  EXPECT_NEAR(*store.GetStatistic(kCpu, 0, 1000, Statistic::kP99), 99.01,
              0.1);
  EXPECT_NEAR(*store.GetStatistic(kCpu, 0, 1000, Statistic::kP90), 90.1,
              0.1);
}

TEST(MetricStoreTest, EmptyWindowIsNotFound) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 100.0, 1.0).ok());
  EXPECT_EQ(store.GetStatistic(kCpu, 0, 50, Statistic::kAverage)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(MetricStoreTest, InvalidWindowRejected) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 100.0, 1.0).ok());
  EXPECT_EQ(store.GetStatistic(kCpu, 200, 100, Statistic::kAverage)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MetricStoreTest, ListMetricsFiltersByNamespace) {
  MetricStore store;
  ASSERT_TRUE(store.Put(kCpu, 0.0, 1.0).ok());
  ASSERT_TRUE(store.Put(kRecords, 0.0, 1.0).ok());
  EXPECT_EQ(store.ListMetrics().size(), 2u);
  auto storm_only = store.ListMetrics("Flower/Storm");
  ASSERT_EQ(storm_only.size(), 1u);
  EXPECT_EQ(storm_only[0].name, "CpuUtilization");
  EXPECT_TRUE(store.ListMetrics("Nope").empty());
}

TEST(MetricStoreTest, DimensionsDistinguishMetrics) {
  MetricStore store;
  MetricId a = kCpu;
  MetricId b = kCpu;
  b.dimension = "other-cluster";
  ASSERT_TRUE(store.Put(a, 0.0, 1.0).ok());
  ASSERT_TRUE(store.Put(b, 0.0, 2.0).ok());
  EXPECT_EQ(store.metric_count(), 2u);
  EXPECT_DOUBLE_EQ(*store.GetStatistic(b, -1, 10, Statistic::kAverage), 2.0);
}

TEST(MetricIdTest, ToStringFormat) {
  EXPECT_EQ(kCpu.ToString(), "Flower/Storm/CpuUtilization{storm}");
}

}  // namespace
}  // namespace flower::cloudwatch
