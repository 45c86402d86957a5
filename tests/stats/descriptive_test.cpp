#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/reservoir.h"

namespace flower::stats {
namespace {

TEST(DescriptiveTest, SummarizeBasics) {
  Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // Unbiased.
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
}

TEST(DescriptiveTest, SummarizeEmptyAndSingle) {
  Summary e = Summarize({});
  EXPECT_EQ(e.count, 0u);
  EXPECT_EQ(e.variance, 0.0);
  Summary one = Summarize({5.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.mean, 5.0);
  EXPECT_EQ(one.variance, 0.0);
  EXPECT_EQ(one.min, 5.0);
  EXPECT_EQ(one.max, 5.0);
}

TEST(DescriptiveTest, WelfordStableForLargeOffset) {
  // Naive two-pass sum-of-squares loses precision at offset 1e9.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(1e9 + (i % 2));
  Summary s = Summarize(xs);
  EXPECT_NEAR(s.variance, 0.25025, 1e-3);
}

// The percentile is the selection one of common/reservoir.h; it
// reorders its input, so each call gets its own copy.
double PercentileOf(std::vector<double> xs, double p) {
  return *Percentile(&xs, p);
}

TEST(DescriptiveTest, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(PercentileOf(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOf(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileOf(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileOf(xs, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(PercentileOf(xs, 62.5), 3.5);
}

TEST(DescriptiveTest, PercentileUnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(PercentileOf({5, 1, 3, 2, 4}, 50.0), 3.0);
}

TEST(DescriptiveTest, PercentileErrors) {
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 50.0).status().code(),
            StatusCode::kFailedPrecondition);
  std::vector<double> one{1.0};
  EXPECT_EQ(Percentile(&one, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Percentile(&one, 101.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(PercentileOf({7.0}, 99.0), 7.0);
}

TEST(DescriptiveTest, RmseAndMae) {
  std::vector<double> a{1, 2, 3}, b{1, 4, 3};
  EXPECT_NEAR(*Rmse(a, b), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(*MeanAbsoluteError(a, b), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(*Rmse(a, a), 0.0);
}

TEST(DescriptiveTest, RmseErrors) {
  EXPECT_FALSE(Rmse({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(Rmse({}, {}).ok());
  EXPECT_FALSE(MeanAbsoluteError({1.0}, {}).ok());
}

}  // namespace
}  // namespace flower::stats
