#include "common/reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace flower {
namespace {

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  ReservoirSampler r(100, 1);
  for (int i = 0; i < 50; ++i) r.Add(static_cast<double>(i));
  EXPECT_EQ(r.size(), 50u);
  EXPECT_EQ(r.observed(), 50u);
  EXPECT_DOUBLE_EQ(*r.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(*r.Percentile(100.0), 49.0);
}

TEST(ReservoirTest, SizeCappedAtCapacity) {
  ReservoirSampler r(64, 2);
  for (int i = 0; i < 100000; ++i) r.Add(1.0);
  EXPECT_EQ(r.size(), 64u);
  EXPECT_EQ(r.observed(), 100000u);
}

TEST(ReservoirTest, SampleIsApproximatelyUniform) {
  // Stream 0..99999; a uniform sample's mean should be near 50k and its
  // median near 50k too.
  ReservoirSampler r(2000, 3);
  for (int i = 0; i < 100000; ++i) r.Add(static_cast<double>(i));
  double sum = 0.0;
  for (double v : r.sample()) sum += v;
  double mean = sum / static_cast<double>(r.size());
  EXPECT_NEAR(mean, 50000.0, 3000.0);
  EXPECT_NEAR(*r.Percentile(50.0), 50000.0, 5000.0);
  EXPECT_NEAR(*r.Percentile(99.0), 99000.0, 2000.0);
}

TEST(ReservoirTest, PercentileValidation) {
  ReservoirSampler r(10, 4);
  EXPECT_EQ(r.Percentile(50.0).status().code(),
            StatusCode::kFailedPrecondition);
  r.Add(5.0);
  EXPECT_FALSE(r.Percentile(-1.0).ok());
  EXPECT_FALSE(r.Percentile(101.0).ok());
  EXPECT_DOUBLE_EQ(*r.Percentile(75.0), 5.0);
}

TEST(ReservoirTest, ResetClearsSampleKeepsDeterminism) {
  ReservoirSampler r(8, 5);
  for (int i = 0; i < 100; ++i) r.Add(static_cast<double>(i));
  r.Reset();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.observed(), 0u);
  r.Add(42.0);
  EXPECT_DOUBLE_EQ(*r.Percentile(50.0), 42.0);
}

// Selection reads the value sorting would: bit for bit against a
// sorted copy with the interpolation the sort-based rule used, on
// samples with ties, at the smallest sizes and a reservoir's.
TEST(ReservoirTest, PercentileBySelectionEqualsSortedInterpolation) {
  auto sorted_rule = [](std::vector<double> sorted, double p) {
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) return sorted[0];
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  Rng rng(17);
  for (size_t n : {1, 2, 3, 1024}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Draws from a few distinct values (ties) or a continuous range.
      std::vector<double> sample(n);
      const bool ties = trial % 2 == 0;
      for (double& v : sample) {
        v = ties ? static_cast<double>(rng.UniformInt(0, 4)) * 0.1
                 : rng.Exponential(3.0);
      }
      for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial
                                        << " p=" << p);
        std::vector<double> work = sample;
        Result<double> got = Percentile(&work, p);
        ASSERT_TRUE(got.ok());
        const double want = sorted_rule(sample, p);
        EXPECT_EQ(std::memcmp(&*got, &want, sizeof(double)), 0)
            << *got << " vs " << want;
        // Selection only reorders.
        std::sort(work.begin(), work.end());
        std::vector<double> ascending = sample;
        std::sort(ascending.begin(), ascending.end());
        EXPECT_EQ(work, ascending);
      }
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 50.0).status().code(),
            StatusCode::kFailedPrecondition);
  std::vector<double> one = {2.0};
  EXPECT_EQ(Percentile(&one, 100.5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReservoirTest, DeterministicForSeed) {
  auto run = [](uint64_t seed) {
    ReservoirSampler r(16, seed);
    for (int i = 0; i < 10000; ++i) r.Add(static_cast<double>(i));
    return r.sample();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace flower
