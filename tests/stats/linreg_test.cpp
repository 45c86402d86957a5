#include "stats/linreg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace flower::stats {
namespace {

TEST(FitSimpleTest, ExactLineRecovered) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double xi : x) y.push_back(4.8 + 0.0002 * xi);  // The paper's Eq. 2.
  auto fit = FitSimple(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 0.0002, 1e-12);
  EXPECT_NEAR(fit->intercept, 4.8, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit->correlation, 1.0, 1e-9);
  EXPECT_NEAR(fit->Predict(10.0), 4.802, 1e-9);
}

TEST(FitSimpleTest, NoisyLineRecoveredApproximately) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 2000; ++i) {
    double xi = rng.Uniform(0, 50000);
    x.push_back(xi);
    y.push_back(4.8 + 0.0002 * xi + rng.Normal(0, 0.5));
  }
  auto fit = FitSimple(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 0.0002, 2e-6);
  EXPECT_NEAR(fit->intercept, 4.8, 0.1);
  EXPECT_GT(fit->r_squared, 0.95);
  EXPECT_GT(fit->slope_t, 50.0);  // Hugely significant slope.
  EXPECT_NEAR(fit->residual_std, 0.5, 0.05);
}

TEST(FitSimpleTest, ZeroSlopeHasSmallTStatistic) {
  Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(rng.Uniform(0, 100));
    y.push_back(rng.Normal(10, 1));  // Independent of x.
  }
  auto fit = FitSimple(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(std::fabs(fit->slope_t), 4.0);
  EXPECT_LT(fit->r_squared, 0.05);
}

TEST(FitSimpleTest, Errors) {
  EXPECT_EQ(FitSimple({1, 2}, {1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FitSimple({1, 2}, {1, 2}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FitSimple({3, 3, 3}, {1, 2, 3}).status().code(),
            StatusCode::kFailedPrecondition);  // Zero variance in x.
}

}  // namespace
}  // namespace flower::stats
