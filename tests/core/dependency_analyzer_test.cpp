#include "core/dependency_analyzer.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace flower::core {
namespace {

const cloudwatch::MetricId kIn{"Flower/Kinesis", "IncomingRecords", "s"};
const cloudwatch::MetricId kCpu{"Flower/Storm", "CpuUtilization", "c"};
const cloudwatch::MetricId kWcu{"Flower/DynamoDB",
                                "ConsumedWriteCapacityUnits", "t"};

LayerMetric Ingest() { return {Layer::kIngestion, kIn}; }
LayerMetric Cpu() { return {Layer::kAnalytics, kCpu}; }
LayerMetric Storage() { return {Layer::kStorage, kWcu}; }

// Seeds the store with a planted linear dependency
// cpu = 4.8 + 0.0002 * records + noise (the paper's Eq. 2 shape).
void PlantEq2(cloudwatch::MetricStore* store, int minutes, double noise_sd,
              uint64_t seed = 11) {
  Rng rng(seed);
  for (int i = 0; i < minutes; ++i) {
    double t = 60.0 * i;
    double records = 10000.0 + 40000.0 * std::fabs(std::sin(i * 0.05));
    double cpu = 4.8 + 0.0002 * records + rng.Normal(0.0, noise_sd);
    ASSERT_TRUE(store->Put(kIn, t, records).ok());
    ASSERT_TRUE(store->Put(kCpu, t, cpu).ok());
  }
}

TEST(DependencyAnalyzerTest, RecoversPlantedEq2) {
  cloudwatch::MetricStore store;
  PlantEq2(&store, 550, 0.3);
  DependencyAnalyzer analyzer;
  auto dep = analyzer.Analyze(store, Ingest(), Cpu(), 0.0, 550 * 60.0);
  ASSERT_TRUE(dep.ok());
  EXPECT_NEAR(dep->fit.slope, 0.0002, 2e-5);
  EXPECT_NEAR(dep->fit.intercept, 4.8, 0.5);
  EXPECT_GT(dep->fit.correlation, 0.9);
  EXPECT_TRUE(dep->significant);
}

TEST(DependencyAnalyzerTest, NoiseOnlyPairIsNotSignificant) {
  cloudwatch::MetricStore store;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    double t = 60.0 * i;
    ASSERT_TRUE(store.Put(kIn, t, rng.Uniform(0, 1000)).ok());
    ASSERT_TRUE(store.Put(kWcu, t, rng.Uniform(0, 100)).ok());
  }
  DependencyAnalyzer analyzer;
  auto dep = analyzer.Analyze(store, Ingest(), Storage(), 0.0, 200 * 60.0);
  ASSERT_TRUE(dep.ok());
  EXPECT_FALSE(dep->significant);
  EXPECT_LT(std::fabs(dep->fit.correlation), 0.3);
}

TEST(DependencyAnalyzerTest, SameLayerPairRejected) {
  cloudwatch::MetricStore store;
  DependencyAnalyzer analyzer;
  LayerMetric a{Layer::kIngestion, kIn};
  LayerMetric b{Layer::kIngestion, kCpu};
  EXPECT_EQ(analyzer.Analyze(store, a, b, 0, 100).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DependencyAnalyzerTest, UnknownMetricIsNotFound) {
  cloudwatch::MetricStore store;
  DependencyAnalyzer analyzer;
  EXPECT_EQ(
      analyzer.Analyze(store, Ingest(), Cpu(), 0, 100).status().code(),
      StatusCode::kNotFound);
}

TEST(DependencyAnalyzerTest, TooFewSamplesRejected) {
  cloudwatch::MetricStore store;
  PlantEq2(&store, 5, 0.1);  // Below the 10 aligned samples a fit needs.
  DependencyAnalyzer analyzer;
  EXPECT_EQ(
      analyzer.Analyze(store, Ingest(), Cpu(), 0.0, 300.0).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(DependencyAnalyzerTest, MisalignedSeriesAreJoinedOnBuckets) {
  cloudwatch::MetricStore store;
  // Predictor samples at :00, response at :30 within each minute —
  // bucketing at 60 s must still align them.
  for (int i = 0; i < 50; ++i) {
    double records = 1000.0 * i;
    ASSERT_TRUE(store.Put(kIn, 60.0 * i, records).ok());
    ASSERT_TRUE(store.Put(kCpu, 60.0 * i + 30.0, 2.0 + 0.001 * records).ok());
  }
  DependencyAnalyzer analyzer;
  auto dep = analyzer.Analyze(store, Ingest(), Cpu(), 0.0, 3000.0 + 60.0);
  ASSERT_TRUE(dep.ok());
  EXPECT_NEAR(dep->fit.slope, 0.001, 1e-6);
  EXPECT_NEAR(dep->fit.r_squared, 1.0, 1e-9);
}

TEST(DependencyAnalyzerTest, AnalyzeAllSkipsSameLayerAndKeepsCrossLayer) {
  cloudwatch::MetricStore store;
  PlantEq2(&store, 100, 0.3);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Put(kWcu, 60.0 * i, rng.Uniform(0, 100)).ok());
  }
  DependencyAnalyzer analyzer;
  auto deps = analyzer.AnalyzeAll(store, {Ingest(), Cpu(), Storage()}, 0.0,
                                  6000.0);
  // 3 metrics in 3 distinct layers → 6 ordered cross-layer pairs.
  EXPECT_EQ(deps.size(), 6u);
  int significant = 0;
  for (const auto& d : deps) {
    EXPECT_NE(d.predictor.layer, d.response.layer);
    if (d.significant) ++significant;
  }
  // records↔cpu both directions; wcu pairs are noise.
  EXPECT_EQ(significant, 2);
}

TEST(DependencyAnalyzerTest, ToStringRendersEquation) {
  cloudwatch::MetricStore store;
  PlantEq2(&store, 100, 0.01);
  DependencyAnalyzer analyzer;
  auto dep = analyzer.Analyze(store, Ingest(), Cpu(), 0.0, 6000.0);
  ASSERT_TRUE(dep.ok());
  std::string s = dep->ToString();
  EXPECT_NE(s.find("CpuUtilization(analytics) ="), std::string::npos);
  EXPECT_NE(s.find("IncomingRecords(ingestion)"), std::string::npos);
  EXPECT_NE(s.find("significant"), std::string::npos);
}

}  // namespace
}  // namespace flower::core
