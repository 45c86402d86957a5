#include "common/time_series.h"

#include <gtest/gtest.h>

namespace flower {
namespace {

TimeSeries Make(std::initializer_list<Sample> samples) {
  TimeSeries ts;
  for (const Sample& s : samples) ts.AppendUnchecked(s.time, s.value);
  return ts;
}

TEST(TimeSeriesTest, AppendKeepsOrderAndSize) {
  TimeSeries ts;
  ASSERT_TRUE(ts.Append(0.0, 1.0).ok());
  ASSERT_TRUE(ts.Append(1.0, 2.0).ok());
  ASSERT_TRUE(ts.Append(1.0, 3.0).ok());  // Equal time allowed.
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.start_time(), 0.0);
  EXPECT_EQ(ts.end_time(), 1.0);
}

TEST(TimeSeriesTest, AppendRejectsNonMonotonicTime) {
  TimeSeries ts;
  ASSERT_TRUE(ts.Append(5.0, 1.0).ok());
  Status st = ts.Append(4.0, 2.0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ts.size(), 1u);
}

TEST(TimeSeriesTest, WindowIsHalfOpen) {
  TimeSeries ts = Make({{0, 1}, {10, 2}, {20, 3}, {30, 4}});
  TimeSeries w = ts.Window(10.0, 30.0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].value, 2.0);
  EXPECT_EQ(w[1].value, 3.0);
}

TEST(TimeSeriesTest, WindowOnEmptyRangeIsEmpty) {
  TimeSeries ts = Make({{0, 1}, {10, 2}});
  EXPECT_TRUE(ts.Window(100.0, 200.0).empty());
  EXPECT_TRUE(ts.Window(5.0, 5.0).empty());
}

TEST(TimeSeriesTest, ValuesAndTimesExtract) {
  TimeSeries ts = Make({{0, 1}, {1, 4}, {2, 9}});
  EXPECT_EQ(ts.Values(), (std::vector<double>{1, 4, 9}));
  EXPECT_EQ(ts.Times(), (std::vector<double>{0, 1, 2}));
}

TEST(TimeSeriesTest, AtReturnsLatestAtOrBefore) {
  TimeSeries ts = Make({{0, 1}, {10, 2}, {20, 3}});
  EXPECT_EQ(*ts.At(0.0), 1.0);
  EXPECT_EQ(*ts.At(9.9), 1.0);
  EXPECT_EQ(*ts.At(10.0), 2.0);
  EXPECT_EQ(*ts.At(1000.0), 3.0);
}

TEST(TimeSeriesTest, AtBeforeFirstSampleIsNotFound) {
  TimeSeries ts = Make({{10, 2}});
  EXPECT_EQ(ts.At(5.0).status().code(), StatusCode::kNotFound);
  TimeSeries empty;
  EXPECT_EQ(empty.At(5.0).status().code(), StatusCode::kNotFound);
}

TEST(TimeSeriesTest, BucketMeanAveragesPerBucket) {
  TimeSeries ts = Make({{0, 2}, {5, 4}, {10, 10}, {25, 7}});
  TimeSeries b = ts.BucketMean(0.0, 10.0);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].time, 0.0);
  EXPECT_EQ(b[0].value, 3.0);   // (2+4)/2
  EXPECT_EQ(b[1].value, 10.0);  // bucket [10,20)
  EXPECT_EQ(b[2].time, 20.0);
  EXPECT_EQ(b[2].value, 7.0);   // bucket [20,30)
}

TEST(TimeSeriesTest, BucketMeanSkipsEmptyBucketsAndEarlySamples) {
  TimeSeries ts = Make({{-5, 100}, {0, 1}, {35, 2}});
  TimeSeries b = ts.BucketMean(0.0, 10.0);
  ASSERT_EQ(b.size(), 2u);  // Buckets [0,10) and [30,40); sample at -5 ignored.
  EXPECT_EQ(b[0].value, 1.0);
  EXPECT_EQ(b[1].time, 30.0);
}

}  // namespace
}  // namespace flower
