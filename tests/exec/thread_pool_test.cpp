#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sub_rng.h"

namespace flower::exec {
namespace {

Status Count(std::atomic<size_t>* n) {
  n->fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

TEST(ThreadPoolTest, EmptyRangeReturnsOkWithoutInvokingBody) {
  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<size_t> calls{0};
    TaskStats stats;
    stats.executed = 99;
    Status s = pool.RunTasks(
        0, [&](uint64_t, ThreadPool::TaskContext&) { return Count(&calls); },
        &stats);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls.load(), 0u) << threads << " thread(s)";
    EXPECT_EQ(stats.executed, 0u) << threads << " thread(s)";
  }
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  TaskStats stats;
  Status s = pool.RunTasks(
      kN,
      [&](uint64_t id, ThreadPool::TaskContext&) {
        counts[id].fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(s.ok());
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(stats.executed, kN);
  EXPECT_EQ(stats.spawned, 0u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineAndStopsAtFirstError) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> seen;
  Status s = pool.RunTasks(
      10, [&](uint64_t id, ThreadPool::TaskContext&) -> Status {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        seen.push_back(id);
        if (id == 3) return Status::Internal("boom at 3");
        return Status::OK();
      });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Inline execution is ordered, so nothing past the failing task runs.
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, ParallelErrorWinsAndDrainsRemainingChunks) {
  // Each task stands for one chunk of a caller's items.
  ThreadPool pool(4);
  constexpr uint64_t kN = 10000;
  std::atomic<size_t> executed{0};
  Status s = pool.RunTasks(
      kN, [&](uint64_t id, ThreadPool::TaskContext&) -> Status {
        if (id == 17) return Status::InvalidArgument("bad chunk 17");
        return Count(&executed);
      });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Draining must skip at least some of the remaining work; with 10k
  // tasks and the failure among the first few each worker claims this
  // is deterministic enough to assert a strict bound.
  EXPECT_LT(executed.load(), kN);
}

TEST(ThreadPoolTest, FirstErrorIsReturnedWhenSeveralChunksFail) {
  ThreadPool pool(4);
  Status s = pool.RunTasks(
      100, [&](uint64_t id, ThreadPool::TaskContext&) -> Status {
        return Status::Internal("fail " + std::to_string(id));
      });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Exactly one of the per-task messages survives — never a torn mix.
  EXPECT_NE(s.message().find("fail "), std::string::npos);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<size_t> ran{0};
  ASSERT_TRUE(pool.RunTasks(64, [&](uint64_t, ThreadPool::TaskContext&) {
                    return Count(&ran);
                  }).ok());
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossSweeps) {
  // Flat sweeps, spawning sweeps and sweeps with and without stats
  // interleave on one pool without leaking state between them.
  ThreadPool pool(3);
  for (int sweep = 0; sweep < 20; ++sweep) {
    std::atomic<size_t> visited{0};
    Status s = pool.RunTasks(64, [&](uint64_t, ThreadPool::TaskContext&) {
      return Count(&visited);
    });
    ASSERT_TRUE(s.ok()) << "sweep " << sweep;
    ASSERT_EQ(visited.load(), 64u) << "sweep " << sweep;
    std::atomic<size_t> ran{0};
    TaskStats stats;
    s = pool.RunTasks(
        4,
        [&](uint64_t id, ThreadPool::TaskContext& ctx) {
          if (id < 4) ctx.Spawn(id + 4);
          return Count(&ran);
        },
        &stats);
    ASSERT_TRUE(s.ok()) << "sweep " << sweep;
    ASSERT_EQ(ran.load(), 8u) << "sweep " << sweep;
    ASSERT_EQ(stats.executed, 8u) << "sweep " << sweep;
    ASSERT_EQ(stats.spawned, 4u) << "sweep " << sweep;
  }
}

TEST(ThreadPoolTest, ResultIndependentOfThreadCountAndGrain) {
  // A reduction whose per-index terms come from SubRng must not depend
  // on how the caller chunks its items into tasks (grain items per
  // task, as NSGA-II's fan-outs do) or how many workers run them.
  constexpr size_t kN = 257;  // Deliberately not a multiple of any grain.
  auto run = [](size_t threads, size_t grain) {
    ThreadPool pool(threads);
    std::vector<double> out(kN, 0.0);
    Status s = pool.RunTasks(
        (kN + grain - 1) / grain,
        [&](uint64_t c, ThreadPool::TaskContext&) {
          for (size_t i = c * grain; i < kN && i < (c + 1) * grain; ++i) {
            Rng rng = SubRng(/*master_seed=*/42, /*stream=*/3, i);
            out[i] = rng.Uniform();
          }
          return Status::OK();
        });
    EXPECT_TRUE(s.ok());
    return out;
  };
  std::vector<double> baseline = run(1, 1);
  EXPECT_EQ(run(2, 1), baseline);
  EXPECT_EQ(run(4, 3), baseline);
  EXPECT_EQ(run(8, 64), baseline);
}

TEST(RunTasksTest, SpawnedChainsRunToCompletion) {
  // One seed fans out a binary tree of follow-up tasks; the sweep must
  // drain every transitively spawned id before returning. The seed is
  // task 0, the tree's root is node 1.
  ThreadPool pool(4);
  constexpr uint64_t kLeafCount = 128;  // Nodes [1, 2*kLeafCount).
  std::vector<std::atomic<int>> counts(2 * kLeafCount);
  TaskStats stats;
  Status s = pool.RunTasks(
      1,
      [&](uint64_t id, ThreadPool::TaskContext& ctx) {
        uint64_t node = id == 0 ? 1 : id;
        counts[node].fetch_add(1, std::memory_order_relaxed);
        if (2 * node < 2 * kLeafCount) {
          ctx.Spawn(2 * node);
          if (2 * node + 1 < 2 * kLeafCount) ctx.Spawn(2 * node + 1);
        }
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(s.ok());
  for (uint64_t node = 1; node < 2 * kLeafCount; ++node) {
    EXPECT_EQ(counts[node].load(), 1) << "node " << node;
  }
  EXPECT_EQ(stats.executed, 2 * kLeafCount - 1);
  EXPECT_EQ(stats.spawned, 2 * kLeafCount - 2);
}

TEST(RunTasksTest, SingleThreadPoolRunsInlineInFifoOrder) {
  // The 1-thread determinism anchor: seeds run in order, spawns append
  // to the back, so a 1-thread fleet sweep runs tenants in index order.
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> order;
  Status s = pool.RunTasks(
      3,
      [&](uint64_t id, ThreadPool::TaskContext& ctx) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(id);
        if (id < 10) ctx.Spawn(id + 10);
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 10, 11, 12}));
}

TEST(RunTasksTest, FirstErrorWinsAndDrainsRemainingTasks) {
  // Inline, so the failure point is deterministic. Every seed spawns a
  // follow-up; the ones queued before the failure are drained too.
  ThreadPool pool(1);
  std::vector<uint64_t> executed;
  Status s = pool.RunTasks(
      100, [&](uint64_t id, ThreadPool::TaskContext& ctx) -> Status {
        executed.push_back(id);
        if (id == 5) return Status::Internal("boom at 5");
        if (id < 100) ctx.Spawn(id + 100);
        return Status::OK();
      });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Inline FIFO: seeds 0..5 ran; later seeds and the follow-ups of 0..4
  // were drained unexecuted.
  EXPECT_EQ(executed, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RunTasksTest, ParallelErrorStopsSpawning) {
  // Eight chains of 1000 links each; one link fails early, and every
  // chain then stops at its next claimed link instead of running on.
  ThreadPool pool(4);
  constexpr uint64_t kChains = 8;
  constexpr uint64_t kLinks = 1000;
  std::atomic<size_t> executed{0};
  Status s = pool.RunTasks(
      kChains, [&](uint64_t id, ThreadPool::TaskContext& ctx) -> Status {
        if (id == 3 * kChains) return Status::InvalidArgument("bad");
        if (id + kChains < kChains * kLinks) ctx.Spawn(id + kChains);
        return Count(&executed);
      });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_LT(executed.load(), kChains * kLinks);
}

TEST(RunTasksTest, IdleWorkersStealFromLoadedDeques) {
  // All work spawns from one seed, so it lands on a single deque; idle
  // workers must steal it. Tasks sleep long enough that the spawning
  // worker cannot race through the whole backlog alone.
  ThreadPool pool(4);
  constexpr uint64_t kFollowUps = 64;
  std::atomic<size_t> executed{0};
  TaskStats stats;
  Status s = pool.RunTasks(
      1,
      [&](uint64_t id, ThreadPool::TaskContext& ctx) {
        if (id == 0) {
          for (uint64_t k = 1; k <= kFollowUps; ++k) ctx.Spawn(k);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return Count(&executed);
      },
      &stats);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(executed.load(), kFollowUps + 1);
  EXPECT_EQ(stats.executed, kFollowUps + 1);
  EXPECT_EQ(stats.spawned, kFollowUps);
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.busy_sec, 0.0);
}

TEST(SubRngTest, SameCellSameSequence) {
  Rng a = SubRng(99, 5, 11);
  Rng b = SubRng(99, 5, 11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(SubRngTest, DistinctCellsGiveDistinctSeeds) {
  // Any two of master/stream/index differing must change the seed.
  std::set<uint64_t> seeds;
  for (uint64_t master : {0ull, 1ull, 42ull}) {
    for (uint64_t stream : {0ull, 1ull, 7ull}) {
      for (uint64_t index : {0ull, 1ull, 1000ull}) {
        seeds.insert(DeriveSeed(master, stream, index));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 27u);
}

TEST(SubRngTest, StreamAndIndexAreNotInterchangeable) {
  // (stream=1, index=2) and (stream=2, index=1) must be different
  // cells; a naive xor of the two coordinates would collide here.
  EXPECT_NE(DeriveSeed(7, 1, 2), DeriveSeed(7, 2, 1));
  EXPECT_NE(DeriveSeed(7, 0, 3), DeriveSeed(7, 3, 0));
}

TEST(SubRngTest, Mix64AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t base = Mix64(0x123456789ABCDEFull);
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t flipped = Mix64(0x123456789ABCDEFull ^ (1ull << bit));
    int diff = __builtin_popcountll(base ^ flipped);
    EXPECT_GE(diff, 16) << "bit " << bit;
    EXPECT_LE(diff, 48) << "bit " << bit;
  }
}

}  // namespace
}  // namespace flower::exec
