#include "flow/sliding_window.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace flower::flow {
namespace {

struct Emission {
  int64_t entity;
  double count;
  SimTime window_end;
};

std::vector<Emission> Collect(SlidingWindowCounter* counter, SimTime t) {
  std::vector<Emission> out;
  counter->AdvanceTo(t, [&](int64_t e, double c, SimTime end) {
    out.push_back({e, c, end});
  });
  return out;
}

TEST(SlidingWindowTest, CreateValidatesParameters) {
  EXPECT_FALSE(SlidingWindowCounter::Create(0.0, 10.0).ok());
  EXPECT_FALSE(SlidingWindowCounter::Create(60.0, 0.0).ok());
  EXPECT_FALSE(SlidingWindowCounter::Create(60.0, 45.0).ok());  // Not multiple.
  EXPECT_FALSE(SlidingWindowCounter::Create(5.0, 10.0).ok());   // W < S.
  EXPECT_TRUE(SlidingWindowCounter::Create(60.0, 10.0).ok());
  EXPECT_TRUE(SlidingWindowCounter::Create(10.0, 10.0).ok());   // Tumbling.
  // Hostile settings come back as a Status naming both values. The
  // first four used to hang (a NaN or infinite ratio cast to an
  // integer, then a ring size doubled until it wrapped to 0), the last
  // two to abort allocating a ring of 2^30 buckets.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Hostile {
    double window, slide;
    const char* named;
  };
  for (const Hostile& h : {Hostile{nan, 10.0, "window nan s over slide 10 s"},
                           Hostile{10.0, nan, "window 10 s over slide nan s"},
                           Hostile{inf, 10.0, "window inf s over slide 10 s"},
                           Hostile{1e300, 1e-300,
                                   "window 1e+300 s over slide 1e-300 s"},
                           Hostile{1e9, 1.0, "window 1e+09 s over slide 1 s"},
                           Hostile{1e12, 1.0,
                                   "window 1e+12 s over slide 1 s"}}) {
    auto counter = SlidingWindowCounter::Create(h.window, h.slide);
    ASSERT_FALSE(counter.ok()) << h.named;
    EXPECT_EQ(counter.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(counter.status().message().find(h.named), std::string::npos)
        << counter.status().message();
  }
  // The bound on slides per window is inclusive.
  const double most =
      static_cast<double>(SlidingWindowCounter::kMaxBucketsPerWindow);
  EXPECT_TRUE(SlidingWindowCounter::Create(most, 1.0).ok());
  EXPECT_FALSE(SlidingWindowCounter::Create(most + 1.0, 1.0).ok());
}

// A batch add is the same per-tuple adds: random batches at one time
// each, late batches clamped into the oldest live bucket, batches that
// grow the slot table past several doublings, and large and negative
// ids. Emissions match bit for bit, and so do the counters.
TEST(SlidingWindowTest, BatchAddEqualsPerTupleAdds) {
  uint64_t clamped_batches = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const double slide = 5.0;
    const double window = slide * static_cast<double>(rng.UniformInt(1, 6));
    auto batch = SlidingWindowCounter::Create(window, slide).MoveValueOrDie();
    auto single = SlidingWindowCounter::Create(window, slide).MoveValueOrDie();
    std::vector<int64_t> pool;
    std::vector<std::pair<int64_t, double>> in;
    SimTime t = rng.Uniform(0.0, 100.0);
    for (int step = 0; step < 300; ++step) {
      t += rng.Uniform(0.0, 4.0);
      // A late batch is stamped up to a minute before the clock.
      const SimTime at = rng.Bernoulli(0.1) ? t - rng.Uniform(0.0, 60.0) : t;
      in.resize(static_cast<size_t>(rng.UniformInt(0, 40)));
      for (auto& [entity, weight] : in) {
        if (pool.empty() || rng.Bernoulli(0.3)) {
          pool.push_back(rng.Bernoulli(0.5)
                             ? rng.UniformInt(INT64_MIN, INT64_MAX)
                             : rng.UniformInt(-50, 50));
        }
        entity = pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
        weight = rng.Uniform(0.1, 3.0);
      }
      const uint64_t late_before = batch.late_clamped();
      batch.AddBatch(at, in.size(), [&in](size_t i) { return in[i]; });
      for (const auto& [entity, weight] : in) single.Add(entity, at, weight);
      if (batch.late_clamped() > late_before) ++clamped_batches;
      ASSERT_EQ(batch.late_clamped(), single.late_clamped());
      ASSERT_EQ(batch.tracked_entities(), single.tracked_entities());
      if (rng.Bernoulli(0.3)) {
        std::vector<Emission> got = Collect(&batch, t);
        std::vector<Emission> want = Collect(&single, t);
        ASSERT_EQ(got.size(), want.size()) << "t=" << t;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].entity, want[i].entity);
          EXPECT_EQ(
              std::memcmp(&got[i].count, &want[i].count, sizeof(double)), 0)
              << got[i].count << " vs " << want[i].count;
          EXPECT_EQ(got[i].window_end, want[i].window_end);
        }
        ASSERT_EQ(batch.tracked_entities(), single.tracked_entities());
      }
    }
    // Several doublings of the 64-entry slot table.
    EXPECT_GT(pool.size(), 1000u);
  }
  EXPECT_GT(clamped_batches, 20u);
}

TEST(SlidingWindowTest, CountsWithinOneWindow) {
  auto counter = SlidingWindowCounter::Create(60.0, 10.0).MoveValueOrDie();
  counter.Add(1, 2.0);
  counter.Add(1, 5.0);
  counter.Add(2, 7.0);
  auto emissions = Collect(&counter, 10.0);  // First slide boundary.
  ASSERT_EQ(emissions.size(), 2u);
  std::map<int64_t, double> got;
  for (const auto& e : emissions) {
    got[e.entity] = e.count;
    EXPECT_DOUBLE_EQ(e.window_end, 10.0);
  }
  EXPECT_DOUBLE_EQ(got[1], 2.0);
  EXPECT_DOUBLE_EQ(got[2], 1.0);
}

TEST(SlidingWindowTest, WindowSlidesAndExpiresOldBuckets) {
  auto counter = SlidingWindowCounter::Create(20.0, 10.0).MoveValueOrDie();
  counter.Add(1, 5.0);    // Bucket [0, 10).
  (void)Collect(&counter, 10.0);
  counter.Add(1, 15.0);   // Bucket [10, 20).
  auto at20 = Collect(&counter, 20.0);  // Window [0, 20): count 2.
  ASSERT_EQ(at20.size(), 1u);
  EXPECT_DOUBLE_EQ(at20[0].count, 2.0);
  // Window [10, 30) at boundary 30: only the t=15 event remains.
  auto at30 = Collect(&counter, 30.0);
  ASSERT_EQ(at30.size(), 1u);
  EXPECT_DOUBLE_EQ(at30[0].count, 1.0);
  // Window [20, 40): empty → no emissions.
  auto at40 = Collect(&counter, 40.0);
  EXPECT_TRUE(at40.empty());
}

TEST(SlidingWindowTest, MultipleBoundariesEmittedInOneAdvance) {
  auto counter = SlidingWindowCounter::Create(20.0, 10.0).MoveValueOrDie();
  counter.Add(1, 5.0);
  auto emissions = Collect(&counter, 35.0);  // Boundaries 10, 20, 30.
  // Entity 1 appears in windows ending at 10 and 20 (bucket [0,10) is
  // inside both), not 30.
  ASSERT_EQ(emissions.size(), 2u);
  EXPECT_DOUBLE_EQ(emissions[0].window_end, 10.0);
  EXPECT_DOUBLE_EQ(emissions[1].window_end, 20.0);
}

TEST(SlidingWindowTest, WeightsAccumulate) {
  auto counter = SlidingWindowCounter::Create(10.0, 10.0).MoveValueOrDie();
  counter.Add(7, 1.0, 2.5);
  counter.Add(7, 2.0, 0.5);
  auto emissions = Collect(&counter, 10.0);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(emissions[0].count, 3.0);
}

TEST(SlidingWindowTest, AdvanceBeforeAnyAddIsNoop) {
  auto counter = SlidingWindowCounter::Create(10.0, 10.0).MoveValueOrDie();
  EXPECT_TRUE(Collect(&counter, 100.0).empty());
}

TEST(SlidingWindowTest, TracksDistinctEntities) {
  auto counter = SlidingWindowCounter::Create(60.0, 10.0).MoveValueOrDie();
  for (int64_t e = 0; e < 25; ++e) counter.Add(e, 1.0);
  EXPECT_EQ(counter.tracked_entities(), 25u);
}

// Regression: a late arrival whose timestamp lands in an
// already-retired slide bucket used to resurrect a dead map bucket
// below `min_needed` — never emitted by any future window and never
// dropped (lost count + unbounded growth). It is now clamped into the
// oldest bucket that still feeds a future window.
TEST(SlidingWindowTest, LateArrivalIsClampedIntoOldestLiveBucket) {
  auto counter = SlidingWindowCounter::Create(20.0, 10.0).MoveValueOrDie();
  counter.Add(1, 5.0);                   // Bucket [0, 10).
  (void)Collect(&counter, 35.0);         // Boundaries 10, 20, 30 retire it.
  EXPECT_EQ(counter.late_clamped(), 0u);
  counter.Add(7, 5.0);                   // Late: bucket [0, 10) is dead.
  EXPECT_EQ(counter.late_clamped(), 1u);
  // The clamped count surfaces in the next window instead of vanishing.
  auto at40 = Collect(&counter, 40.0);
  ASSERT_EQ(at40.size(), 1u);
  EXPECT_EQ(at40[0].entity, 7);
  EXPECT_DOUBLE_EQ(at40[0].count, 1.0);
  // And it expires normally — no immortal bucket keeps it tracked.
  (void)Collect(&counter, 80.0);
  EXPECT_EQ(counter.tracked_entities(), 0u);
}

// Add keeps the bucket of the last timestamp it saw, so a batch at
// one time divides once. An Add at an older time right after must
// still find its own bucket: a retired one is clamped and counted, and
// a live older one is filled, never the batch's newer bucket.
TEST(SlidingWindowTest, LateAddAfterABatchGetsItsOwnBucket) {
  auto counter = SlidingWindowCounter::Create(20.0, 10.0).MoveValueOrDie();
  counter.Add(1, 5.0);            // Bucket [0, 10).
  (void)Collect(&counter, 35.0);  // Boundaries 10, 20, 30; [20, 30) is
                                  // the oldest bucket still live.
  counter.Add(2, 37.0);           // A batch at t = 37: bucket [30, 40).
  counter.Add(2, 37.0);
  counter.Add(7, 5.0);            // Late: [0, 10) is retired.
  EXPECT_EQ(counter.late_clamped(), 1u);
  counter.Add(2, 37.0);
  counter.Add(8, 25.0);           // Older but live: bucket [20, 30).
  EXPECT_EQ(counter.late_clamped(), 1u);
  // The window [20, 40) holds the batch, the clamped Add and the older
  // one.
  auto at40 = Collect(&counter, 40.0);
  ASSERT_EQ(at40.size(), 3u);
  EXPECT_EQ(at40[0].entity, 2);
  EXPECT_DOUBLE_EQ(at40[0].count, 3.0);
  EXPECT_EQ(at40[1].entity, 7);
  EXPECT_DOUBLE_EQ(at40[1].count, 1.0);
  EXPECT_EQ(at40[2].entity, 8);
  EXPECT_DOUBLE_EQ(at40[2].count, 1.0);
  // [30, 50) holds only the batch: neither older Add went into its
  // bucket.
  auto at50 = Collect(&counter, 50.0);
  ASSERT_EQ(at50.size(), 1u);
  EXPECT_EQ(at50[0].entity, 2);
  EXPECT_DOUBLE_EQ(at50[0].count, 3.0);
}

// tracked_entities() is maintained incrementally (the metrics path
// samples it every period); it must stay consistent through bucket
// expiry and entity reappearance.
TEST(SlidingWindowTest, TrackedEntitiesFollowsBucketLifetimes) {
  auto counter = SlidingWindowCounter::Create(20.0, 10.0).MoveValueOrDie();
  for (int64_t e = 0; e < 10; ++e) counter.Add(e, 1.0);
  EXPECT_EQ(counter.tracked_entities(), 10u);
  counter.Add(3, 12.0);  // Entity 3 spans two buckets: still 10 distinct.
  EXPECT_EQ(counter.tracked_entities(), 10u);
  (void)Collect(&counter, 25.0);  // Bucket [0, 10) dropped after 20.
  EXPECT_EQ(counter.tracked_entities(), 1u);  // Only entity 3 remains.
  (void)Collect(&counter, 60.0);
  EXPECT_EQ(counter.tracked_entities(), 0u);
  counter.Add(42, 65.0);
  EXPECT_EQ(counter.tracked_entities(), 1u);
}

TEST(SlidingWindowTest, TumblingWindowCountsExactlyOnce) {
  auto counter = SlidingWindowCounter::Create(10.0, 10.0).MoveValueOrDie();
  counter.Add(1, 3.0);
  auto first = Collect(&counter, 10.0);
  ASSERT_EQ(first.size(), 1u);
  // The event must not reappear in the next tumbling window.
  auto second = Collect(&counter, 20.0);
  EXPECT_TRUE(second.empty());
}

// Reference: the nested-map counter the flat one replaced. Bucket b
// holds each entity's weights summed in arrival order; a boundary at
// bucket `end` emits, in ascending entity id, each entity's sum over
// buckets [end - per_window, end) in ascending bucket order.
struct MapCounter {
  double slide;
  int64_t per_window;
  std::map<int64_t, std::map<int64_t, double>> buckets;
  int64_t next = 0;
  bool started = false;

  void Add(int64_t entity, SimTime t, double w) {
    int64_t b = static_cast<int64_t>(std::floor(t / slide));
    if (!started) {
      next = b + 1;
      started = true;
    }
    buckets[b][entity] += w;
  }
  std::vector<Emission> AdvanceTo(SimTime t) {
    std::vector<Emission> out;
    if (!started) return out;
    for (; next <= static_cast<int64_t>(std::floor(t / slide)); ++next) {
      std::map<int64_t, double> totals;
      for (int64_t b = next - per_window; b < next; ++b) {
        auto it = buckets.find(b);
        if (it == buckets.end()) continue;
        for (const auto& [entity, w] : it->second) {
          auto [slot, fresh] = totals.emplace(entity, w);
          if (!fresh) slot->second += w;
        }
      }
      for (const auto& [entity, total] : totals) {
        out.push_back({entity, total, static_cast<double>(next) * slide});
      }
      buckets.erase(next - per_window);
    }
    return out;
  }
};

// Emissions equal the nested-map reference bit for bit: random negative
// and very large ids, fractional weights (so summation order shows),
// new entities arriving between boundaries, and advances that cross
// several boundaries at once.
TEST(SlidingWindowTest, EmissionsMatchNestedMapReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const double slide = 5.0;
    const int64_t per_window = rng.UniformInt(1, 6);
    auto counter =
        SlidingWindowCounter::Create(slide * static_cast<double>(per_window),
                                     slide)
            .MoveValueOrDie();
    MapCounter ref{slide, per_window, {}, 0, false};
    std::vector<int64_t> pool;
    SimTime t = rng.Uniform(0.0, 100.0);
    for (int step = 0; step < 400; ++step) {
      t += rng.Bernoulli(0.1) ? rng.Uniform(5.0, 30.0) : rng.Uniform(0.0, 1.5);
      // New entities keep arriving: a fresh id a fifth of the time.
      if (pool.empty() || rng.Bernoulli(0.2)) {
        pool.push_back(rng.Bernoulli(0.5)
                           ? rng.UniformInt(-4'000'000'000'000'000'000LL,
                                            4'000'000'000'000'000'000LL)
                           : rng.UniformInt(-50, 50));
      }
      const int adds = static_cast<int>(rng.UniformInt(0, 8));
      for (int i = 0; i < adds; ++i) {
        int64_t e = pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
        double w = rng.Uniform(0.1, 3.0);
        counter.Add(e, t, w);
        ref.Add(e, t, w);
      }
      std::vector<Emission> got = Collect(&counter, t);
      std::vector<Emission> want = ref.AdvanceTo(t);
      ASSERT_EQ(got.size(), want.size()) << "t=" << t;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].entity, want[i].entity);
        EXPECT_EQ(std::memcmp(&got[i].count, &want[i].count, sizeof(double)),
                  0)
            << got[i].count << " vs " << want[i].count;
        EXPECT_EQ(got[i].window_end, want[i].window_end);
      }
    }
  }
}

}  // namespace
}  // namespace flower::flow
