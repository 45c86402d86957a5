#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace flower {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntIsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMatchesMomentsApproximately) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(25.0));
  EXPECT_NEAR(sum / n, 25.0, 0.5);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// The engine is xoshiro256** seeded by four splitmix64 outputs; these
// are the reference algorithm's outputs for seeds 0 and 42.
TEST(RngTest, EngineMatchesReferenceOutputs) {
  Rng zero(0);
  EXPECT_EQ(zero.Next(), 0x99ec5f36cb75f2b4ull);
  EXPECT_EQ(zero.Next(), 0xbf6e1f784956452aull);
  EXPECT_EQ(zero.Next(), 0x1a5f849d4933e6e0ull);
  EXPECT_EQ(zero.Next(), 0x6aa594f1262d2d2cull);
  Rng rng(42);
  EXPECT_EQ(rng.Next(), 0x15780b2e0c2ec716ull);
  EXPECT_EQ(rng.Next(), 0x6104d9866d113a7eull);
  EXPECT_EQ(rng.Next(), 0xae17533239e499a1ull);
  EXPECT_EQ(rng.Next(), 0xecb8ad4703b360a1ull);
  for (int i = 4; i < 999; ++i) rng.Next();
  EXPECT_EQ(rng.Next(), 0x8de5848c61ab8968ull);  // The 1000th output.
}

// Golden vectors: the first draws of every sampler from seed 42. Any
// change here moves every digest, and needs the rebaseline that
// ROADMAP.md describes.
TEST(RngTest, GoldenDrawsOfEverySampler) {
  {
    Rng rng(42);
    EXPECT_EQ(rng.Uniform(), 0.08386297105988216);
    EXPECT_EQ(rng.Uniform(), 0.3789802506626686);
    EXPECT_EQ(rng.Uniform(), 0.6800434110281394);
    EXPECT_EQ(rng.Uniform(-1.0, 1.0), 0.8493858906507752);
    EXPECT_EQ(rng.Uniform(-1.0, 1.0), 0.9836078285642056);
  }
  {
    Rng rng(42);
    const std::vector<int64_t> urls = {83, 378, 680, 924, 991, 769};
    for (int64_t want : urls) EXPECT_EQ(rng.UniformInt(0, 999), want);
    const std::vector<int64_t> jitter = {28, 45, 34, 11, 24, -27};
    for (int64_t want : jitter) EXPECT_EQ(rng.UniformInt(-64, 64), want);
  }
  {
    // A span of 3 * 2^62 rejects a quarter of its draws.
    Rng rng(42);
    const int64_t half = int64_t{3} << 61;
    const std::vector<int64_t> want = {
        -5757279954339162800, -1674315257917674530, 2490911044045337400,
        5875651554245511288};
    for (int64_t w : want) EXPECT_EQ(rng.UniformInt(-half, half - 1), w);
    Rng full(7);
    EXPECT_EQ(full.UniformInt(INT64_MIN, INT64_MAX), -5523389002881075622);
    EXPECT_EQ(full.UniformInt(INT64_MIN, INT64_MAX), 5142052590334782674);
  }
  {
    Rng rng(42);
    EXPECT_EQ(rng.Normal(), -0.7262191382447857);
    EXPECT_EQ(rng.Normal(), 0.2216227015035933);
    EXPECT_EQ(rng.Normal(), 0.46417731016247366);
    EXPECT_EQ(rng.Normal(), 1.476249461018415);
    Rng scaled(42);
    EXPECT_EQ(scaled.Normal(10.0, 2.0), 8.547561723510428);
    EXPECT_EQ(scaled.Normal(10.0, 2.0), 10.443245403007186);
  }
  {
    Rng rng(42);
    EXPECT_EQ(rng.Exponential(0.5), 4.957142218117177);
    EXPECT_EQ(rng.Exponential(0.5), 1.9405423686538221);
    EXPECT_EQ(rng.Exponential(0.5), 0.7711972862047813);
    EXPECT_EQ(rng.Exponential(0.5), 0.15658709515444308);
  }
  {
    Rng rng(42);
    const std::vector<bool> want = {true,  false, false, false, false, false,
                                    false, false, false, false, false, true};
    for (bool w : want) EXPECT_EQ(rng.Bernoulli(0.3), w);
  }
  struct PoissonGolden {
    double mean;
    std::vector<int64_t> draws;
  };
  const std::vector<PoissonGolden> poisson = {
      {0.3, {0, 0, 0, 2, 0, 1, 0, 0}},
      {3.125, {1, 9, 7, 1, 3, 4, 6, 7}},
      {9.99, {19, 9, 16, 10, 10, 9, 12, 11}},
      {10.0, {5, 13, 12, 13, 11, 12, 5, 9}},
      {62.5, {49, 68, 69, 67, 70, 65, 67, 50}},
      {250.0, {223, 258, 260, 263, 258, 265, 260, 255}},
  };
  for (const PoissonGolden& g : poisson) {
    SCOPED_TRACE(g.mean);
    Rng rng(42);
    for (int64_t want : g.draws) EXPECT_EQ(rng.Poisson(g.mean), want);
  }
  {
    std::vector<double> zipf;
    for (int k = 1; k <= 100; ++k) zipf.push_back(1.0 / std::pow(k, 1.1));
    AliasTable table(zipf);
    Rng rng(42);
    const std::vector<int64_t> want = {8, 1, 16, 1, 2, 1, 3, 1, 1, 1};
    for (int64_t w : want) EXPECT_EQ(table.Sample(&rng), w);
  }
}

TEST(RngTest, PoissonOfNonPositiveMeanIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-3.0), 0);
  EXPECT_EQ(rng.Poisson(std::nan("")), 0);
}

// Pearson's chi-square of observed counts against expected ones. Bins
// with an expected count below 5 are pooled into their neighbour
// (towards the middle), so the statistic is close to chi-square.
struct ChiSquare {
  double statistic = 0.0;
  int dof = 0;
};

ChiSquare PooledChiSquare(std::vector<double> observed,
                          std::vector<double> expected) {
  // Pool from each end inwards.
  while (expected.size() > 2 && expected.front() < 5.0) {
    expected[1] += expected[0];
    observed[1] += observed[0];
    expected.erase(expected.begin());
    observed.erase(observed.begin());
  }
  while (expected.size() > 2 && expected.back() < 5.0) {
    expected[expected.size() - 2] += expected.back();
    observed[observed.size() - 2] += observed.back();
    expected.pop_back();
    observed.pop_back();
  }
  ChiSquare out;
  for (size_t i = 0; i < expected.size(); ++i) {
    const double d = observed[i] - expected[i];
    out.statistic += d * d / expected[i];
  }
  out.dof = static_cast<int>(expected.size()) - 1;
  return out;
}

// A fixed-seed test can only fail by a change of algorithm; the bound,
// about the 0.9999 quantile, makes it catch a wrong distribution rather
// than an unlucky seed.
void ExpectChiSquareFits(const ChiSquare& c) {
  ASSERT_GT(c.dof, 0);
  const double bound = c.dof + 4.0 * std::sqrt(2.0 * c.dof) + 4.0;
  EXPECT_LT(c.statistic, bound) << "dof " << c.dof;
}

TEST(RngTest, PoissonMatchesItsPmfAtEveryRegime) {
  // Both sides of the switch at mean 10, a sparse and a dense fleet
  // batch (3.125 and 62.5 records), and a larger mean.
  const double means[] = {0.3, 3.125, 9.99, 10.0, 62.5, 250.0};
  const int n = 40000;
  uint64_t seed = 101;
  for (double mean : means) {
    SCOPED_TRACE(mean);
    const int64_t top = static_cast<int64_t>(mean + 12.0 * std::sqrt(mean)) + 12;
    std::vector<double> observed(static_cast<size_t>(top) + 1, 0.0);
    Rng rng(seed++);
    for (int i = 0; i < n; ++i) {
      const int64_t k = rng.Poisson(mean);
      ASSERT_GE(k, 0);
      observed[static_cast<size_t>(std::min(k, top))] += 1.0;
    }
    std::vector<double> expected(observed.size(), 0.0);
    double below_top = 0.0;
    for (int64_t k = 0; k < top; ++k) {
      const double pmf = std::exp(static_cast<double>(k) * std::log(mean) -
                                  mean - std::lgamma(k + 1.0));
      expected[static_cast<size_t>(k)] = n * pmf;
      below_top += pmf;
    }
    expected.back() = n * std::max(0.0, 1.0 - below_top);
    ExpectChiSquareFits(PooledChiSquare(observed, expected));
  }
}

TEST(RngTest, UniformIntIsFlatOverASpanThatIsNotAPowerOfTwo) {
  // The click generator's size jitter: 129 values.
  Rng rng(211);
  const int64_t lo = -64, hi = 64;
  const int per_bin = 300;
  std::vector<double> observed(hi - lo + 1, 0.0);
  for (int i = 0; i < per_bin * (hi - lo + 1); ++i) {
    observed[static_cast<size_t>(rng.UniformInt(lo, hi) - lo)] += 1.0;
  }
  ExpectChiSquareFits(PooledChiSquare(
      observed, std::vector<double>(observed.size(), per_bin)));
}

TEST(AliasTableTest, MatchesZipfWeights) {
  // The click generator's URL popularity in a fleet partition.
  std::vector<double> weights;
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    weights.push_back(1.0 / std::pow(k, 1.1));
    sum += weights.back();
  }
  AliasTable table(weights);
  Rng rng(307);
  const int n = 100000;
  std::vector<double> observed(weights.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    const int64_t k = table.Sample(&rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 100);
    observed[static_cast<size_t>(k)] += 1.0;
  }
  std::vector<double> expected;
  for (double w : weights) expected.push_back(n * w / sum);
  ExpectChiSquareFits(PooledChiSquare(observed, expected));
}

TEST(AliasTableTest, ZeroWeightsAreNeverDrawnAndOneColumnAlwaysIs) {
  AliasTable table({0.0, 3.0, 0.0, 1.0});
  Rng rng(13);
  int threes = 0;
  for (int i = 0; i < 4000; ++i) {
    const int64_t k = table.Sample(&rng);
    ASSERT_TRUE(k == 1 || k == 3) << k;
    threes += k == 3;
  }
  EXPECT_NEAR(threes / 4000.0, 0.25, 0.03);
  AliasTable single({2.5});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(single.Sample(&rng), 0);
}

// Kolmogorov-Smirnov distance of a sorted sample from a CDF.
template <typename Cdf>
double KsDistance(std::vector<double> xs, Cdf cdf) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double f = cdf(xs[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  return d;
}

// sqrt(n) * D stays below 1.95 with probability 0.999.
constexpr double kKsBound = 1.95;

TEST(RngTest, NormalPassesKolmogorovSmirnov) {
  Rng rng(401);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Normal(3.0, 2.0));
  const double d = KsDistance(xs, [](double x) {
    return 0.5 * std::erfc(-(x - 3.0) / (2.0 * std::sqrt(2.0)));
  });
  EXPECT_LT(d * std::sqrt(20000.0), kKsBound);
}

TEST(RngTest, ExponentialPassesKolmogorovSmirnov) {
  Rng rng(409);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.Exponential(0.25));
    ASSERT_TRUE(std::isfinite(xs.back()));
    ASSERT_GE(xs.back(), 0.0);
  }
  const double d =
      KsDistance(xs, [](double x) { return 1.0 - std::exp(-0.25 * x); });
  EXPECT_LT(d * std::sqrt(20000.0), kKsBound);
}

}  // namespace
}  // namespace flower
