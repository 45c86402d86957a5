#include "flow/bolts.h"

#include <gtest/gtest.h>

#include <vector>

namespace flower::flow {
namespace {

storm::Tuple Click(int64_t url, SimTime origin = 0.0) {
  storm::Tuple t;
  t.entity_id = url;
  t.origin_time = origin;
  t.value = 1.0;
  return t;
}

TEST(WindowCountBoltTest, EmitsAggregatesAtSlideBoundaries) {
  auto counter = SlidingWindowCounter::Create(60.0, 10.0).MoveValueOrDie();
  WindowCountBolt bolt(std::move(counter));
  std::vector<storm::Tuple> emitted;
  auto emit = [&](storm::Tuple t) { emitted.push_back(t); };

  // Three clicks on url 5 and one on url 9 in the first slide.
  ASSERT_TRUE(bolt.Execute(Click(5), 1.0, emit).ok());
  ASSERT_TRUE(bolt.Execute(Click(5), 3.0, emit).ok());
  ASSERT_TRUE(bolt.Execute(Click(9), 7.0, emit).ok());
  ASSERT_TRUE(bolt.Execute(Click(5), 9.0, emit).ok());
  EXPECT_TRUE(emitted.empty());  // No boundary crossed yet.

  // Crossing t=10 triggers one aggregate per tracked url.
  ASSERT_TRUE(bolt.Execute(Click(9), 11.0, emit).ok());
  ASSERT_EQ(emitted.size(), 2u);
  double url5 = 0.0, url9 = 0.0;
  for (const storm::Tuple& t : emitted) {
    if (t.entity_id == 5) url5 = t.value;
    if (t.entity_id == 9) url9 = t.value;
  }
  EXPECT_DOUBLE_EQ(url5, 3.0);
  EXPECT_DOUBLE_EQ(url9, 1.0);
  EXPECT_EQ(bolt.emitted_aggregates(), 2u);
}

TEST(WindowCountBoltTest, AggregateRespectsTupleWeight) {
  auto counter = SlidingWindowCounter::Create(10.0, 10.0).MoveValueOrDie();
  WindowCountBolt bolt(std::move(counter));
  std::vector<storm::Tuple> emitted;
  auto emit = [&](storm::Tuple t) { emitted.push_back(t); };
  storm::Tuple weighted = Click(1);
  weighted.value = 2.5;
  ASSERT_TRUE(bolt.Execute(weighted, 1.0, emit).ok());
  ASSERT_TRUE(bolt.Execute(Click(1), 12.0, emit).ok());
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_DOUBLE_EQ(emitted[0].value, 2.5);
}

TEST(PersistBoltTest, WritesAggregateToTable) {
  sim::Simulation sim;
  dynamodb::TableConfig cfg;
  cfg.initial_wcu = 100.0;
  dynamodb::Table table(&sim, nullptr, cfg);
  PersistBolt bolt(&table, 128);
  storm::Tuple agg = Click(7);
  agg.value = 42.0;
  ASSERT_TRUE(bolt.Execute(agg, 0.0, [](storm::Tuple) {}).ok());
  EXPECT_EQ(bolt.persisted(), 1u);
  auto item = table.GetItem(7, 128);
  ASSERT_TRUE(item.ok());
  EXPECT_DOUBLE_EQ(*item, 42.0);
}

TEST(PersistBoltTest, PropagatesThrottleForBackpressure) {
  sim::Simulation sim;
  dynamodb::TableConfig cfg;
  cfg.initial_wcu = 1.0;
  cfg.burst_window_sec = 1.0;
  dynamodb::Table table(&sim, nullptr, cfg);
  PersistBolt bolt(&table, 128);
  ASSERT_TRUE(bolt.Execute(Click(1), 0.0, [](storm::Tuple) {}).ok());
  Status st = bolt.Execute(Click(2), 0.0, [](storm::Tuple) {});
  EXPECT_TRUE(st.IsRetryable());  // The cluster re-queues on this.
  EXPECT_EQ(bolt.persisted(), 1u);
}

}  // namespace
}  // namespace flower::flow
