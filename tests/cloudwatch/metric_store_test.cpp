#include "cloudwatch/metric_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

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

TEST(MetricStoreTest, BoundHistoryValidation) {
  MetricStore store;
  for (double bad : {0.0, -60.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(store.BoundHistory(bad).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  ASSERT_TRUE(store.BoundHistory(120.0).ok());
  ASSERT_TRUE(store.Put(kCpu, 0.0, 1.0).ok());
  // A bound set after the first datapoint could not cover what came
  // before it.
  EXPECT_EQ(store.BoundHistory(60.0).code(),
            StatusCode::kFailedPrecondition);
}

// A Put at t drops the series' datapoints stamped <= t - L; the other
// series and the put count are untouched.
TEST(MetricStoreTest, BoundedSeriesKeepsOnlyTheReachableSuffix) {
  MetricStore store;
  ASSERT_TRUE(store.BoundHistory(120.0).ok());
  for (int i = 0; i <= 10; ++i) {
    ASSERT_TRUE(store.Put(kCpu, i * 60.0, static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(store.Put(kRecords, 0.0, 1.0).ok());
  const TimeSeries& cpu = **store.GetSeries(kCpu);
  ASSERT_EQ(cpu.size(), 2u);
  EXPECT_EQ(cpu[0].time, 540.0);
  EXPECT_EQ(cpu[1].time, 600.0);
  EXPECT_EQ((*store.GetSeries(kRecords))->size(), 1u);
  EXPECT_EQ(store.total_datapoints(), 12u);
  // 480 is the newest dropped stamp: (480, 600] lost nothing, while a
  // window starting before 480 would miss its datapoint.
  EXPECT_DOUBLE_EQ(*store.GetStatistic(kCpu, 480, 600, Statistic::kSum),
                   19.0);
  for (double t0 : {420.0, std::nextafter(480.0, 0.0)}) {
    Result<double> past = store.GetStatistic(kCpu, t0, 600, Statistic::kSum);
    EXPECT_EQ(past.status().code(), StatusCode::kFailedPrecondition) << t0;
    EXPECT_NE(past.status().message().find(kCpu.ToString()),
              std::string::npos)
        << past.status();
  }
}

// A sensor delayed by d reads (fl(t - d) - W, fl(t - d)], which can
// start a rounding step before fl(t - fl(W + d)). With W = 60 and
// d = 0.4 at t = 1080 it does, yet the datapoint at 1020 it needs is
// kept, so the read is answered as full history would answer it.
TEST(MetricStoreTest, DelayedReadInsideAFractionalBoundIsAnswered) {
  const double window = 60.0;
  const double delay = 0.4;
  MetricStore full;
  MetricStore bounded;
  ASSERT_TRUE(bounded.BoundHistory(window + delay).ok());
  for (int i = 0; i <= 18; ++i) {
    ASSERT_TRUE(full.Put(kCpu, i * 60.0, static_cast<double>(i)).ok());
    ASSERT_TRUE(bounded.Put(kCpu, i * 60.0, static_cast<double>(i)).ok());
  }
  const double t1 = 1080.0 - delay;
  const double t0 = t1 - window;
  ASSERT_LT(t0, 1080.0 - (window + delay));
  Result<double> got = bounded.GetStatistic(kCpu, t0, t1, Statistic::kAverage);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, *full.GetStatistic(kCpu, t0, t1, Statistic::kAverage));
  EXPECT_EQ(*got, 17.0);
}

// Property: a bounded store answers every read whose window starts at
// or after the newest datapoint its bound dropped exactly as an
// unbounded store fed the same datapoints (every statistic, bit for
// bit), and refuses every read starting before it, so no answer is
// partial and no covered read is refused. Series mix equal stamps,
// whole-minute and ragged gaps; besides random windows, each step reads
// from exactly the newest dropped stamp and from just before it.
TEST(MetricStoreTest, BoundedStoreAnswersReadsInsideTheBoundLikeFullHistory) {
  const Statistic kAll[] = {Statistic::kAverage, Statistic::kSum,
                            Statistic::kMinimum, Statistic::kMaximum,
                            Statistic::kSampleCount, Statistic::kP50,
                            Statistic::kP90, Statistic::kP99};
  const double kNever = -std::numeric_limits<double>::infinity();
  Rng rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    const double bound = rng.Uniform(10.0, 400.0);
    MetricStore full;
    MetricStore bounded;
    ASSERT_TRUE(bounded.BoundHistory(bound).ok());
    std::vector<Sample> fed;
    double t = rng.Uniform(-100.0, 100.0);
    for (int i = 0; i < 150; ++i) {
      switch (rng.UniformInt(0, 2)) {
        case 0: break;  // Same stamp as the last datapoint.
        case 1: t += 60.0; break;
        default: t += rng.Uniform(0.1, 200.0); break;
      }
      const double v = rng.Normal(50.0, 30.0);
      fed.push_back({t, v});
      ASSERT_TRUE(full.Put(kCpu, t, v).ok());
      ASSERT_TRUE(bounded.Put(kCpu, t, v).ok());

      size_t reachable = 0;
      double newest_dropped = kNever;
      for (const Sample& s : fed) {
        if (s.time > t - bound) {
          ++reachable;
        } else {
          newest_dropped = std::max(newest_dropped, s.time);
        }
      }
      ASSERT_EQ((*bounded.GetSeries(kCpu))->size(), reachable);

      std::vector<std::pair<double, double>> reads;
      for (int q = 0; q < 3; ++q) {
        const double t1 = t - rng.Uniform(0.0, 1.2 * bound);
        reads.push_back({t1 - rng.Uniform(0.5, 1.2 * bound), t1});
      }
      if (newest_dropped != kNever) {
        reads.push_back({newest_dropped, t});
        reads.push_back({std::nextafter(newest_dropped, kNever), t});
      }
      for (auto [t0, t1] : reads) {
        for (Statistic stat : kAll) {
          Result<double> want = full.GetStatistic(kCpu, t0, t1, stat);
          Result<double> got = bounded.GetStatistic(kCpu, t0, t1, stat);
          if (t0 < newest_dropped) {
            EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
            continue;
          }
          ASSERT_EQ(got.status().code(), want.status().code());
          if (want.ok()) {
            EXPECT_EQ(*got, *want);
          }
        }
      }
    }
    EXPECT_EQ(bounded.total_datapoints(), full.total_datapoints());
  }
}

TEST(MetricIdTest, ToStringFormat) {
  EXPECT_EQ(kCpu.ToString(), "Flower/Storm/CpuUtilization{storm}");
}

}  // namespace
}  // namespace flower::cloudwatch
