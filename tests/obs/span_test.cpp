#include "obs/span.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>


namespace flower::obs {
namespace {

TEST(SpanCollectorTest, DisabledIsInertAndFree) {
  SpanCollector spans(8);
  EXPECT_FALSE(spans.enabled());
  SpanId id = spans.Begin(SpanKind::kSense, "loop", 1.0, kTracePid, 1);
  EXPECT_EQ(id, 0u);
  spans.End(id, 2.0, 42.0);  // Must not crash or record.
  EXPECT_EQ(spans.Emit(SpanKind::kDecide, "loop", 1.0, 0.0, 1, 1), 0u);
  EXPECT_EQ(spans.size(), 0u);
  EXPECT_EQ(spans.total_started(), 0u);
  EXPECT_EQ(spans.Find(1), nullptr);
  EXPECT_EQ(spans.first_retained(), 0u);
}

TEST(SpanCollectorTest, BeginEndRoundTrip) {
  SpanCollector spans(8);
  spans.set_enabled(true);
  SpanId id = spans.Begin(SpanKind::kDecide, "analytics", 10.0, 2, 3,
                          /*parent=*/0, /*follows=*/0);
  ASSERT_EQ(id, 1u);
  const SpanRecord* r = spans.Find(id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->open);
  EXPECT_EQ(r->kind, SpanKind::kDecide);
  EXPECT_EQ(r->label, "analytics");
  EXPECT_EQ(r->pid, 2);
  EXPECT_EQ(r->tid, 3);
  EXPECT_DOUBLE_EQ(r->start, 10.0);

  spans.End(id, 12.5, 4.0, /*outcome=*/7);
  EXPECT_FALSE(r->open);
  EXPECT_DOUBLE_EQ(r->end, 12.5);
  EXPECT_DOUBLE_EQ(r->value, 4.0);
  EXPECT_EQ(r->outcome, 7);

  // Double-End is a no-op: the first close wins.
  spans.End(id, 99.0, -1.0, 9);
  EXPECT_DOUBLE_EQ(r->end, 12.5);
  EXPECT_EQ(r->outcome, 7);
}

TEST(SpanCollectorTest, SequentialIdsAndVirtualTimeDurations) {
  SpanCollector spans(16);
  spans.set_enabled(true);
  SpanId a = spans.Emit(SpanKind::kSense, "s", 100.0, 0.0, 1, 1);
  SpanId b = spans.Emit(SpanKind::kEffect, "e", 100.0, 120.0, 1, 1, a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  const SpanRecord* r = spans.Find(b);
  ASSERT_NE(r, nullptr);
  // Durations are sim seconds, not wall time.
  EXPECT_DOUBLE_EQ(r->end - r->start, 120.0);
  EXPECT_EQ(r->parent, a);
}

TEST(SpanCollectorTest, OldestEvictedFirst) {
  SpanCollector spans(4);
  spans.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    spans.Emit(SpanKind::kSense, "s", static_cast<double>(i), 0.0, 1, 1);
  }
  EXPECT_EQ(spans.total_started(), 6u);
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.evicted(), 2u);
  EXPECT_EQ(spans.first_retained(), 3u);
  EXPECT_EQ(spans.Find(1), nullptr);
  EXPECT_EQ(spans.Find(2), nullptr);
  ASSERT_NE(spans.Find(3), nullptr);
  ASSERT_NE(spans.Find(6), nullptr);
  // Ending an evicted span must not corrupt the slot's new occupant.
  spans.End(1, 50.0, 1.0);
  EXPECT_DOUBLE_EQ(spans.Find(5)->end, 4.0);
}

TEST(SpanCollectorTest, DisableKeepsRecordsReadable) {
  SpanCollector spans(8);
  spans.set_enabled(true);
  SpanId id = spans.Emit(SpanKind::kPlan, "p", 0.0, 1.0, 1, 1);
  spans.set_enabled(false);
  EXPECT_NE(spans.Find(id), nullptr);
  EXPECT_EQ(spans.Begin(SpanKind::kSense, "s", 2.0, 1, 1), 0u);
  EXPECT_EQ(spans.total_started(), 1u);
}

// Builds the canonical one-decision chain:
//   plan(1) <- follows - decide(3) - parent -> sense(2)
//   decide(3) <- parent - actuate(4) (failed), actuate(5) (ok, follows 4)
//   actuate(5) <- parent - effect(6)
struct ChainFixture {
  SpanCollector spans{64};
  SpanId plan, sense, decide, act_fail, act_ok, effect;

  ChainFixture() {
    spans.set_enabled(true);
    plan = spans.Emit(SpanKind::kPlan, "replan", 0.0, 1.0, 1, 100);
    sense = spans.Emit(SpanKind::kSense, "analytics", 60.0, 0.0, 1, 1, 0, 0,
                       82.0);
    decide = spans.Begin(SpanKind::kDecide, "analytics", 60.0, 1, 1, sense,
                         plan);
    act_fail = spans.Emit(SpanKind::kActuate, "analytics", 60.0, 0.0, 1, 1,
                          decide, 0, 5.0, 1);
    act_ok = spans.Emit(SpanKind::kActuate, "analytics", 65.0, 0.0, 1, 1,
                        decide, act_fail, 5.0, 0);
    spans.End(decide, 60.0, 5.0);
    effect = spans.Emit(SpanKind::kEffect, "analytics", 65.0, 55.0, 1, 1,
                        act_ok, 0, 71.0);
  }
};

TEST(SpanIndexTest, ChildrenAndFollowers) {
  ChainFixture f;
  SpanIndex index(f.spans);
  auto kids = index.ChildrenOf(f.decide);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0]->id, f.act_fail);
  EXPECT_EQ(kids[1]->id, f.act_ok);
  auto followers = index.FollowersOf(f.act_fail);
  ASSERT_EQ(followers.size(), 1u);
  EXPECT_EQ(followers[0]->id, f.act_ok);
  EXPECT_TRUE(index.ChildrenOf(f.effect).empty());
}

TEST(SpanIndexTest, EffectOfResolvesFullChain) {
  ChainFixture f;
  SpanIndex index(f.spans);
  auto chain = index.EffectOf(f.decide);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_NE(chain->decision, nullptr);
  EXPECT_EQ(chain->decision->id, f.decide);
  ASSERT_EQ(chain->senses.size(), 1u);
  EXPECT_EQ(chain->senses[0]->id, f.sense);
  ASSERT_EQ(chain->plans.size(), 1u);
  EXPECT_EQ(chain->plans[0]->id, f.plan);
  ASSERT_EQ(chain->actuations.size(), 2u);
  ASSERT_EQ(chain->effects.size(), 1u);
  EXPECT_EQ(chain->effects[0]->id, f.effect);
  EXPECT_DOUBLE_EQ(chain->effects[0]->value, 71.0);
}

TEST(SpanIndexTest, EffectOfRejectsNonDecisionAndMissing) {
  ChainFixture f;
  SpanIndex index(f.spans);
  EXPECT_EQ(index.EffectOf(f.sense).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.EffectOf(9999).status().code(), StatusCode::kNotFound);
}

TEST(SpanIndexTest, SurvivesEvictedEdges) {
  // A ring so small the plan and sense are evicted by later spans: the
  // index must simply drop dangling edges, not crash or fabricate.
  SpanCollector spans(3);
  spans.set_enabled(true);
  SpanId sense = spans.Emit(SpanKind::kSense, "s", 0.0, 0.0, 1, 1);
  SpanId decide = spans.Begin(SpanKind::kDecide, "s", 0.0, 1, 1, sense);
  spans.End(decide, 0.0);
  spans.Emit(SpanKind::kActuate, "s", 0.0, 0.0, 1, 1, decide);
  spans.Emit(SpanKind::kActuate, "s", 1.0, 0.0, 1, 1, decide);  // Evicts 1.
  SpanIndex index(spans);
  auto chain = index.EffectOf(decide);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_TRUE(chain->senses.empty());  // Parent evicted: chain truncates.
  EXPECT_EQ(chain->actuations.size(), 2u);
}

TEST(SpanCollectorTest, IdOffsetMovesTheNamespace) {
  SpanCollector spans(8);
  ASSERT_TRUE(spans.set_id_offset(3 * SpanCollector::kIdStride).ok());
  spans.set_enabled(true);
  SpanId first = spans.Emit(SpanKind::kSense, "s", 0.0, 0.0, 1, 1);
  EXPECT_EQ(first, 3 * SpanCollector::kIdStride + 1);
  SpanId second = spans.Emit(SpanKind::kDecide, "s", 1.0, 0.0, 1, 1, first);
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(spans.total_started(), 2u);
  EXPECT_EQ(spans.first_retained(), first);
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.evicted(), 0u);
  // Lookups resolve inside the offset namespace and reject ids below it.
  ASSERT_NE(spans.Find(first), nullptr);
  EXPECT_EQ(spans.Find(first)->id, first);
  EXPECT_EQ(spans.Find(1), nullptr);
  EXPECT_EQ(spans.Find(3 * SpanCollector::kIdStride), nullptr);
  // The post-run index works unchanged on an offset collector.
  SpanIndex index(spans);
  ASSERT_EQ(index.ChildrenOf(first).size(), 1u);
  EXPECT_EQ(index.ChildrenOf(first)[0]->id, second);
}

TEST(SpanCollectorTest, IdOffsetRejectedOnceRecordingStarted) {
  SpanCollector spans(8);
  spans.set_enabled(true);
  spans.Emit(SpanKind::kSense, "s", 0.0, 0.0, 1, 1);
  EXPECT_EQ(spans.set_id_offset(SpanCollector::kIdStride).code(),
            StatusCode::kFailedPrecondition);
  // The namespace is unchanged after the rejected call.
  EXPECT_EQ(spans.id_offset(), 0u);
  EXPECT_EQ(spans.total_started(), 1u);
}

TEST(SpanCollectorTest, EvictionStillOldestFirstWithOffset) {
  SpanCollector spans(3);
  ASSERT_TRUE(spans.set_id_offset(SpanCollector::kIdStride).ok());
  spans.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    spans.Emit(SpanKind::kSense, "s", i, 0.0, 1, 1);
  }
  EXPECT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.evicted(), 2u);
  EXPECT_EQ(spans.first_retained(), SpanCollector::kIdStride + 3);
  EXPECT_EQ(spans.Find(SpanCollector::kIdStride + 1), nullptr);
  EXPECT_EQ(spans.Find(SpanCollector::kIdStride + 2), nullptr);
  ASSERT_NE(spans.Find(SpanCollector::kIdStride + 5), nullptr);
}

TEST(SpanCollectorTest, ConcurrentBeginsAllocateUniqueIds) {
  // Regression for the pre-fleet plain uint64_t next_id_: two threads
  // recording concurrently could mint the same id (and tear each
  // other's ring slots). With atomic allocation every id is unique.
  // Run under TSan (tools/run_tsan.sh includes the obs label) this also
  // proves the allocation path is race-free.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  SpanCollector spans(kThreads * kPerThread);
  spans.set_enabled(true);
  std::vector<std::vector<SpanId>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spans, &ids, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        ids[t].push_back(
            spans.Emit(SpanKind::kSense, "concurrent", i, 0.0, 1, t));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<SpanId> unique;
  for (const std::vector<SpanId>& per_thread : ids) {
    for (SpanId id : per_thread) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(spans.total_started(), unique.size());
  // Nothing was evicted (ring sized to fit), so every record is intact
  // and stamped with its own id.
  for (SpanId id : unique) {
    const SpanRecord* r = spans.Find(id);
    ASSERT_NE(r, nullptr) << "id " << id;
    EXPECT_EQ(r->id, id);
    EXPECT_EQ(r->label, "concurrent");
  }
}

}  // namespace
}  // namespace flower::obs
