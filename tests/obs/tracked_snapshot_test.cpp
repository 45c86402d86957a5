#include "obs/tracked_snapshot.h"

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"

namespace flower::obs {
namespace {

TEST(TrackedSnapshotTest, LazyResolutionPicksUpLateInstruments) {
  MetricsRegistry registry;
  TrackedSnapshot store(&registry);
  store.TrackGauge("late");
  store.Tick();
  EXPECT_TRUE(store.snapshot().gauges.empty());
  // Instrument appears after tracking: the next tick resolves it.
  registry.GetGauge("late")->Set(7.0);
  store.Tick();
  ASSERT_EQ(store.snapshot().gauges.size(), 1u);
  EXPECT_EQ(store.snapshot().gauges[0].name, "late");
  EXPECT_DOUBLE_EQ(store.snapshot().gauges[0].value, 7.0);
  // Tracking never creates instruments.
  store.TrackGauge("never_registered");
  store.Tick();
  EXPECT_EQ(registry.FindGauge("never_registered"), nullptr);
  EXPECT_EQ(store.snapshot().gauges.size(), 1u);
}

TEST(TrackedSnapshotTest, ReTrackReturnsSameId) {
  MetricsRegistry registry;
  TrackedSnapshot store(&registry);
  size_t a = store.TrackGauge("g", {{"x", "1"}});
  size_t b = store.TrackGauge("g", {{"x", "1"}});
  size_t c = store.TrackGauge("g", {{"x", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(store.NumTracked(), 2u);
}

TEST(TrackedSnapshotTest, TrackedSnapshotIsSparseAndCurrent) {
  MetricsRegistry registry;
  registry.GetGauge("tracked")->Set(1.0);
  registry.GetGauge("untracked")->Set(2.0);
  registry.GetCounter("hits")->Increment(3);
  Histogram* h = registry.GetHistogram("lat");
  h->Record(5.0);

  TrackedSnapshot store(&registry);
  store.TrackGauge("tracked");
  store.TrackCounter("hits");
  store.TrackHistogram("lat");
  store.Tick();

  const MetricsSnapshot& snap = store.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);  // "untracked" absent.
  EXPECT_EQ(snap.gauges[0].name, "tracked");
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.0);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_FALSE(snap.histograms[0].bounds.empty());
  EXPECT_EQ(snap.histograms[0].buckets.size(),
            snap.histograms[0].bounds.size());

  // The buffer is updated in place on the next tick.
  registry.GetGauge("tracked")->Set(9.0);
  h->Record(6.0);
  store.Tick();
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 9.0);
  EXPECT_EQ(snap.histograms[0].count, 2u);
}

}  // namespace
}  // namespace flower::obs
