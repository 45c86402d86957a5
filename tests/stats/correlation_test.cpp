#include "stats/correlation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace flower::stats {
namespace {

TEST(PearsonTest, PerfectPositiveAndNegative) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(*PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> ny{10, 8, 6, 4, 2};
  EXPECT_NEAR(*PearsonCorrelation(x, ny), -1.0, 1e-12);
}

TEST(PearsonTest, InvariantToAffineTransform) {
  Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    double xi = rng.Uniform(0, 10);
    x.push_back(xi);
    y.push_back(3.0 * xi + rng.Normal(0, 1));
  }
  double r1 = *PearsonCorrelation(x, y);
  std::vector<double> x2;
  for (double xi : x) x2.push_back(100.0 - 7.0 * xi);  // Negative scale.
  double r2 = *PearsonCorrelation(x2, y);
  EXPECT_NEAR(r1, -r2, 1e-12);
}

TEST(PearsonTest, IndependentSeriesNearZero) {
  Rng rng(9);
  std::vector<double> x, y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  EXPECT_LT(std::fabs(*PearsonCorrelation(x, y)), 0.05);
}

TEST(PearsonTest, Errors) {
  EXPECT_EQ(PearsonCorrelation({1, 2}, {1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PearsonCorrelation({1}, {1}).status().code(),
            StatusCode::kFailedPrecondition);
  // Zero variance.
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CrossCorrelationTest, DetectsKnownLag) {
  // y[t] = x[t - 3]: x predicts y at lag +3.
  Rng rng(21);
  std::vector<double> x;
  for (int i = 0; i < 300; ++i) x.push_back(rng.Normal());
  std::vector<double> y(x.size(), 0.0);
  for (size_t i = 3; i < x.size(); ++i) y[i] = x[i - 3];
  auto lc = CrossCorrelation(x, y, 10);
  ASSERT_TRUE(lc.ok());
  EXPECT_EQ(lc->best_lag, 3);
  EXPECT_GT(lc->best_r, 0.95);
  EXPECT_EQ(lc->r_by_lag.size(), 21u);
}

TEST(CrossCorrelationTest, ZeroLagForSynchronousSeries) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(std::sin(i * 0.1));
    y.push_back(2.0 * std::sin(i * 0.1) + 1.0);
  }
  auto lc = CrossCorrelation(x, y, 5);
  ASSERT_TRUE(lc.ok());
  EXPECT_EQ(lc->best_lag, 0);
  EXPECT_NEAR(lc->best_r, 1.0, 1e-9);
}

TEST(CrossCorrelationTest, Errors) {
  EXPECT_FALSE(CrossCorrelation({1, 2}, {1}, 1).ok());
  EXPECT_FALSE(CrossCorrelation({1, 2, 3}, {1, 2, 3}, -1).ok());
  EXPECT_FALSE(CrossCorrelation({1, 2}, {3, 4}, 0).ok());
}

}  // namespace
}  // namespace flower::stats
