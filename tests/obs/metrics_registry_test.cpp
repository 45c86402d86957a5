#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace flower::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("steps");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(CounterTest, SameNameAndLabelsIsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("steps", {{"layer", "analytics"}});
  Counter* b = registry.GetCounter("steps", {{"layer", "analytics"}});
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
}

TEST(CounterTest, LabelOrderIsNormalized) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("steps", {{"a", "1"}, {"b", "2"}});
  Counter* b = registry.GetCounter("steps", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(CounterTest, DifferentLabelsAreDistinct) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("steps", {{"layer", "analytics"}});
  Counter* b = registry.GetCounter("steps", {{"layer", "storage"}});
  Counter* c = registry.GetCounter("steps");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  a->Increment();
  EXPECT_EQ(b->Value(), 0u);
  EXPECT_EQ(c->Value(), 0u);
}

TEST(GaugeTest, LastValueWins) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("gain", {{"loop", "analytics"}});
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  g->Set(0.04);
  g->Set(0.15);
  EXPECT_DOUBLE_EQ(g->Value(), 0.15);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  EXPECT_EQ(h->TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h->Min(), 0.0);
  EXPECT_DOUBLE_EQ(h->Max(), 0.0);
  h->Record(2.0);
  h->Record(10.0);
  h->Record(6.0);
  EXPECT_EQ(h->TotalCount(), 3u);
  EXPECT_DOUBLE_EQ(h->Sum(), 18.0);
  EXPECT_DOUBLE_EQ(h->Min(), 2.0);
  EXPECT_DOUBLE_EQ(h->Max(), 10.0);
  EXPECT_DOUBLE_EQ(h->Mean(), 6.0);
}

TEST(HistogramTest, UnderflowAndOverflowBuckets) {
  MetricsRegistry registry;
  HistogramOptions opts;
  opts.min = 1.0;
  opts.max = 16.0;
  opts.sub_buckets = 1;
  Histogram* h = registry.GetHistogram("lat", {}, opts);
  h->Record(0.5);    // Underflow: below min.
  h->Record(1e9);    // Overflow: at/above max.
  h->Record(16.0);   // Exactly max → overflow bucket.
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(h->NumBuckets() - 1), 2u);
  EXPECT_EQ(h->TotalCount(), 3u);
}

TEST(HistogramTest, BucketsPartitionTheRange) {
  MetricsRegistry registry;
  HistogramOptions opts;
  opts.min = 1.0;
  opts.max = 8.0;
  opts.sub_buckets = 2;
  Histogram* h = registry.GetHistogram("lat", {}, opts);
  // Upper bounds must be strictly increasing and end at +inf.
  double prev = 0.0;
  for (size_t i = 0; i + 1 < h->NumBuckets(); ++i) {
    EXPECT_GT(h->UpperBound(i), prev);
    prev = h->UpperBound(i);
  }
  EXPECT_TRUE(std::isinf(h->UpperBound(h->NumBuckets() - 1)));
  // A value lands in the bucket whose [lower, upper) range contains it.
  h->Record(1.1);
  uint64_t total = 0;
  for (size_t i = 0; i < h->NumBuckets(); ++i) total += h->BucketCount(i);
  EXPECT_EQ(total, 1u);
}

TEST(HistogramTest, IgnoresNanClampsNegatives) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  h->Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h->TotalCount(), 0u);
  h->Record(-5.0);  // Clamped to 0 → underflow bucket.
  EXPECT_EQ(h->TotalCount(), 1u);
  EXPECT_EQ(h->BucketCount(0), 1u);
}

TEST(HistogramTest, QuantileInterpolatesAndErrorsWhenEmpty) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  EXPECT_FALSE(h->Quantile(0.5).ok());
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<double>(i));
  auto p50 = h->Quantile(0.5);
  ASSERT_TRUE(p50.ok());
  // Log-linear buckets bound the relative error; p50 of 1..100 is ~50.
  EXPECT_NEAR(*p50, 50.0, 15.0);
  auto p99 = h->Quantile(0.99);
  ASSERT_TRUE(p99.ok());
  EXPECT_GT(*p99, *p50);
}

TEST(HistogramTest, QuantileClampsIntoObservedRange) {
  MetricsRegistry registry;
  // A constant stream lands all mass in one wide log-linear bucket;
  // interpolation alone would smear the estimate across it, but the
  // recorded min == max pins every quantile exactly.
  Histogram* constant = registry.GetHistogram("const");
  for (int i = 0; i < 50; ++i) constant->Record(42.0);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    auto est = constant->Quantile(q);
    ASSERT_TRUE(est.ok());
    EXPECT_DOUBLE_EQ(*est, 42.0) << "q=" << q;
  }

  // Two distinct values: estimates can never leave [min, max].
  Histogram* pair = registry.GetHistogram("pair");
  pair->Record(10.0);
  pair->Record(11.0);
  auto lo = pair->Quantile(0.01);
  auto hi = pair->Quantile(0.99);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_GE(*lo, 10.0);
  EXPECT_LE(*hi, 11.0);
}

TEST(HistogramTest, QuantileErrorBoundedByBucketWidth) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");  // Octave buckets, 4 sub.
  for (int i = 1; i <= 1000; ++i) h->Record(static_cast<double>(i));
  // Log-linear layout: each bucket spans at most 1/4 octave, so the
  // interpolated estimate is within one bucket (≤ 25% relative) of the
  // true quantile everywhere in range.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    auto est = h->Quantile(q);
    ASSERT_TRUE(est.ok());
    double truth = q * 1000.0;
    EXPECT_NEAR(*est, truth, 0.25 * truth + 1.0) << "q=" << q;
  }
}

TEST(RegistryTest, DuplicateLabelKeysCollapseLastWins) {
  MetricsRegistry registry;
  // {a=0,a=1} ≡ {a=1}: repeated assignment, last value wins, and both
  // spellings must address the same series for every instrument kind.
  Counter* c1 = registry.GetCounter("steps", {{"a", "0"}, {"a", "1"}});
  Counter* c2 = registry.GetCounter("steps", {{"a", "1"}});
  EXPECT_EQ(c1, c2);
  Gauge* g1 = registry.GetGauge("g", {{"k", "x"}, {"b", "2"}, {"k", "y"}});
  Gauge* g2 = registry.GetGauge("g", {{"b", "2"}, {"k", "y"}});
  EXPECT_EQ(g1, g2);
  Histogram* h1 = registry.GetHistogram("h", {{"z", "1"}, {"z", "2"}});
  Histogram* h2 = registry.GetHistogram("h", {{"z", "2"}});
  EXPECT_EQ(h1, h2);

  // The snapshot shows the collapsed form, not the raw duplicate.
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.counters[0].labels.size(), 1u);
  EXPECT_EQ(snap.counters[0].labels[0].first, "a");
  EXPECT_EQ(snap.counters[0].labels[0].second, "1");
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.gauges[0].labels.size(), 2u);
}

TEST(RegistryTest, SnapshotIsDeepCopy) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("steps", {{"layer", "analytics"}});
  Gauge* g = registry.GetGauge("gain");
  Histogram* h = registry.GetHistogram("lat");
  c->Increment(7);
  g->Set(1.5);
  h->Record(3.0);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  // Mutating the live registry must not change the snapshot.
  c->Increment(100);
  g->Set(9.9);
  h->Record(4.0);
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(RegistryTest, SnapshotSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha", {{"layer", "storage"}});
  registry.GetCounter("alpha", {{"layer", "analytics"}});
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "alpha");
  EXPECT_EQ(snap.counters[2].name, "zeta");
  EXPECT_EQ(snap.counters[0].labels[0].second, "analytics");
}

TEST(CardinalityGuardTest, DefaultCapIsGenerous) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.max_label_cardinality(), 1024u);
}

TEST(CardinalityGuardTest, OverflowCollapsesIntoSharedSeries) {
  MetricsRegistry registry;
  registry.set_max_label_cardinality(3);
  for (int i = 0; i < 3; ++i) {
    registry.GetCounter("reqs", {{"id", std::to_string(i)}})->Increment();
  }
  // The cap is reached: the next two distinct label-sets collapse into
  // the single {overflow="true"} series instead of minting new ones.
  Counter* spill_a = registry.GetCounter("reqs", {{"id", "3"}});
  Counter* spill_b = registry.GetCounter("reqs", {{"id", "4"}});
  EXPECT_EQ(spill_a, spill_b);
  EXPECT_EQ(spill_a, registry.GetCounter("reqs", {{"overflow", "true"}}));
  spill_a->Increment(5);

  // Already-admitted series keep resolving to their own instruments.
  EXPECT_EQ(registry.GetCounter("reqs", {{"id", "1"}})->Value(), 1u);

  // Two distinct rejected label-sets; resolving the collapsed series by
  // its own {overflow="true"} labels is exempt and never counts.
  EXPECT_EQ(registry.label_overflow_total(), 2u);
  Counter* guard =
      registry.GetCounter("registry.label_overflow", {{"metric", "reqs"}});
  EXPECT_EQ(guard->Value(), 2u);
}

TEST(CardinalityGuardTest, GuardIsPerMetricNameAndPerKind) {
  MetricsRegistry registry;
  registry.set_max_label_cardinality(2);
  registry.GetGauge("depth", {{"id", "0"}});
  registry.GetGauge("depth", {{"id", "1"}});
  Gauge* spill = registry.GetGauge("depth", {{"id", "2"}});
  EXPECT_EQ(spill, registry.GetGauge("depth", {{"overflow", "true"}}));
  // A different metric name is unaffected by "depth" hitting its cap.
  registry.GetGauge("util", {{"id", "0"}})->Set(1.0);
  registry.GetHistogram("lat", {{"id", "0"}})->Record(1.0);
  EXPECT_EQ(registry.label_overflow_total(), 1u);
}

TEST(CardinalityGuardTest, HistogramsCollapseToo) {
  MetricsRegistry registry;
  registry.set_max_label_cardinality(1);
  registry.GetHistogram("lat", {{"id", "0"}})->Record(1.0);
  Histogram* spill = registry.GetHistogram("lat", {{"id", "1"}});
  EXPECT_EQ(spill, registry.GetHistogram("lat", {{"overflow", "true"}}));
  spill->Record(2.0);
  EXPECT_EQ(spill->TotalCount(), 1u);
}

TEST(CardinalityGuardTest, OverflowSeriesIsExemptFromItsOwnGuard) {
  MetricsRegistry registry;
  registry.set_max_label_cardinality(1);
  registry.GetCounter("reqs", {{"id", "0"}});
  // Explicitly asking for the collapsed series is always admitted and
  // never counts as an overflow event itself.
  registry.GetCounter("reqs", {{"overflow", "true"}})->Increment();
  EXPECT_EQ(registry.label_overflow_total(), 0u);
}

TEST(CardinalityGuardTest, WarnsOncePerMetricName) {
  MetricsRegistry registry;
  registry.set_max_label_cardinality(1);
  registry.GetCounter("reqs", {{"id", "0"}});
  testing::internal::CaptureStderr();
  registry.GetCounter("reqs", {{"id", "1"}});
  registry.GetCounter("reqs", {{"id", "2"}});
  registry.GetCounter("reqs", {{"id", "3"}});
  std::string err = testing::internal::GetCapturedStderr();
  size_t first = err.find("label cardinality cap");
  EXPECT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find("label cardinality cap", first + 1), std::string::npos)
      << err;
  EXPECT_EQ(registry.label_overflow_total(), 3u);
}

TEST(RegistryTest, NumInstrumentsCountsAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("a");
  registry.GetCounter("a");  // Re-registration: no new instrument.
  registry.GetGauge("b");
  registry.GetHistogram("c");
  EXPECT_EQ(registry.NumInstruments(), 3u);
}

TEST(RegistryTest, PointersStayValidAcrossManyRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("held", {{"loop", "a"}, {"layer", "x"}});
  Gauge* g = registry.GetGauge("held", {{"loop", "a"}});
  Histogram* h = registry.GetHistogram("held_lat");
  c->Increment(3);
  g->Set(2.5);
  h->Record(7.0);
  // 10,000 further series over 97 names and label sets in both orders;
  // each name stays far below the cardinality cap.
  for (int i = 0; i < 10000; ++i) {
    std::string name = "n";
    name += std::to_string(i % 97);
    LabelSet labels = {{"id", std::to_string(i / 97)},
                       {"kind", std::to_string(i % 3)}};
    if (i % 2 == 1) std::swap(labels[0], labels[1]);
    if (i % 50 == 0) {
      name += "_h";
      registry.GetHistogram(name, labels)->Record(1.0);
    } else if (i % 2 == 0) {
      registry.GetCounter(name, labels)->Increment();
    } else {
      registry.GetGauge(name, labels)->Set(1.0);
    }
  }
  EXPECT_EQ(registry.NumInstruments(), 10003u);
  EXPECT_EQ(registry.label_overflow_total(), 0u);
  EXPECT_EQ(registry.GetCounter("held", {{"layer", "x"}, {"loop", "a"}}), c);
  EXPECT_EQ(registry.GetGauge("held", {{"loop", "a"}}), g);
  EXPECT_EQ(registry.GetHistogram("held_lat"), h);
  EXPECT_EQ(registry.FindCounter("held", {{"loop", "a"}, {"layer", "x"}}), c);
  EXPECT_EQ(c->Value(), 3u);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  EXPECT_EQ(h->TotalCount(), 1u);
}

TEST(RegistryTest, SnapshotOrderIsSeriesKeyOrder) {
  // Names that prefix one another, and label sets that prefix one
  // another, registered interleaved across kinds and out of order.
  const std::vector<std::pair<std::string, LabelSet>> series = {
      {"x.y", {{"b", "0"}}},
      {"x", {{"a", "1"}, {"b", "2"}}},
      {"xy", {}},
      {"x", {}},
      {"x_y", {{"a", "10"}}},
      {"x", {{"a", "1"}}},
      {"x.y", {}},
      {"x", {{"b", "0"}}},
      {"x", {{"a", "10"}}},
      {"x", {{"ab", "1"}}},
      {"w", {{"z", "9"}, {"a", "9"}}},
  };
  MetricsRegistry registry;
  for (size_t i = 0; i < series.size(); ++i) {
    registry.GetCounter(series[i].first, series[i].second)->Increment(i);
    registry.GetGauge(series[series.size() - 1 - i].first,
                      series[series.size() - 1 - i].second);
  }
  std::vector<std::string> expected;
  for (const auto& [name, labels] : series) {
    expected.push_back(MetricsRegistry::SeriesKey(
        name, MetricsRegistry::NormalizeLabels(labels)));
  }
  std::sort(expected.begin(), expected.end());

  MetricsSnapshot snap = registry.Snapshot();
  std::vector<std::string> counters, gauges;
  for (const CounterSample& s : snap.counters) {
    counters.push_back(MetricsRegistry::SeriesKey(s.name, s.labels));
  }
  for (const GaugeSample& s : snap.gauges) {
    gauges.push_back(MetricsRegistry::SeriesKey(s.name, s.labels));
  }
  EXPECT_EQ(counters, expected);
  EXPECT_EQ(gauges, expected);
  // Each sample carries its own series' value.
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(registry.FindCounter(series[i].first, series[i].second)
                  ->Value(),
              i);
  }
}

TEST(RegistryTest, FindReturnsNullForANameOfAnotherKind) {
  MetricsRegistry registry;
  const LabelSet labels = {{"loop", "a"}};
  registry.GetCounter("only_counter", labels);
  registry.GetGauge("only_gauge");
  registry.GetHistogram("only_histogram", labels);
  EXPECT_NE(registry.FindCounter("only_counter", labels), nullptr);
  EXPECT_EQ(registry.FindGauge("only_counter", labels), nullptr);
  EXPECT_EQ(registry.FindHistogram("only_counter", labels), nullptr);
  EXPECT_EQ(registry.FindCounter("only_gauge"), nullptr);
  EXPECT_EQ(registry.FindHistogram("only_gauge"), nullptr);
  EXPECT_EQ(registry.FindCounter("only_histogram", labels), nullptr);
  EXPECT_EQ(registry.FindGauge("only_histogram", labels), nullptr);
  // Probing registers nothing.
  EXPECT_EQ(registry.NumInstruments(), 3u);
}

}  // namespace
}  // namespace flower::obs
