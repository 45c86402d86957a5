#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sub_rng.h"

namespace flower::exec {
namespace {

TEST(ThreadPoolTest, EmptyRangeReturnsOkWithoutInvokingBody) {
  ThreadPool pool(4);
  int calls = 0;
  Status s = pool.ParallelFor(0, 0, 1, [&](size_t) {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);

  // begin == end in the middle of the index space is also empty.
  s = pool.ParallelFor(7, 7, 3, [&](size_t) {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsInlineOnCallingThread) {
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> seen;
  Status s = pool.ParallelFor(2, 6, 100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(seen, (std::vector<size_t>{2, 3, 4, 5}));
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  Status s = pool.ParallelFor(0, kN, 7, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, GrainZeroIsTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<size_t> visited{0};
  Status s = pool.ParallelFor(0, 10, 0, [&](size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(visited.load(), 10u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineAndStopsAtFirstError) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<size_t> seen;
  Status s = pool.ParallelFor(0, 10, 1, [&](size_t i) -> Status {
    seen.push_back(i);
    if (i == 3) return Status::Internal("boom at 3");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Inline execution is ordered, so nothing past the failing index runs.
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, ParallelErrorWinsAndDrainsRemainingChunks) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::atomic<size_t> executed{0};
  Status s = pool.ParallelFor(0, kN, 1, [&](size_t i) -> Status {
    if (i == 17) return Status::InvalidArgument("bad index 17");
    executed.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Draining must skip at least some of the remaining work; with 10k
  // one-index chunks and the failure at index 17 this is deterministic
  // enough to assert a strict bound.
  EXPECT_LT(executed.load(), kN);
}

TEST(ThreadPoolTest, FirstErrorIsReturnedWhenSeveralChunksFail) {
  ThreadPool pool(4);
  Status s = pool.ParallelFor(0, 100, 1, [&](size_t i) -> Status {
    return Status::Internal("fail " + std::to_string(i));
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Exactly one of the per-index messages survives — never a torn mix.
  EXPECT_NE(s.message().find("fail "), std::string::npos);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossSweeps) {
  ThreadPool pool(3);
  for (int sweep = 0; sweep < 20; ++sweep) {
    std::atomic<size_t> visited{0};
    Status s = pool.ParallelFor(0, 64, 4, [&](size_t) {
      visited.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << "sweep " << sweep;
    ASSERT_EQ(visited.load(), 64u) << "sweep " << sweep;
  }
}

TEST(ThreadPoolTest, ResultIndependentOfThreadCountAndGrain) {
  // A reduction whose per-index terms come from SubRng must not depend
  // on how the sweep is chunked or how many workers run it.
  constexpr size_t kN = 257;  // Deliberately not a multiple of any grain.
  auto run = [](size_t threads, size_t grain) {
    ThreadPool pool(threads);
    std::vector<double> out(kN, 0.0);
    Status s = pool.ParallelFor(0, kN, grain, [&](size_t i) {
      Rng rng = SubRng(/*master_seed=*/42, /*stream=*/3, i);
      out[i] = rng.Uniform();
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

TEST(RunTasksTest, EmptySeedListReturnsOkWithoutInvokingBody) {
  ThreadPool pool(4);
  int calls = 0;
  TaskStats stats;
  Status s = pool.RunTasks({}, [&](uint64_t, ThreadPool::TaskContext&) {
    ++calls;
    return Status::OK();
  }, &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.executed, 0u);
}

TEST(RunTasksTest, EverySeedExecutedExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 500;
  std::vector<uint64_t> seeds(kN);
  for (uint64_t i = 0; i < kN; ++i) seeds[i] = i;
  std::vector<std::atomic<int>> counts(kN);
  TaskStats stats;
  Status s = pool.RunTasks(seeds, [&](uint64_t id, ThreadPool::TaskContext&) {
    counts[id].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }, &stats);
  ASSERT_TRUE(s.ok());
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(stats.executed, kN);
  EXPECT_EQ(stats.spawned, 0u);
}

TEST(RunTasksTest, SpawnedChainsRunToCompletion) {
  // One seed fans out a binary tree of follow-up tasks; the sweep must
  // drain every transitively spawned id before returning.
  ThreadPool pool(4);
  constexpr uint64_t kLeafCount = 128;  // Ids [1, 2*kLeafCount).
  std::vector<std::atomic<int>> counts(2 * kLeafCount);
  TaskStats stats;
  Status s = pool.RunTasks(
      {1},
      [&](uint64_t id, ThreadPool::TaskContext& ctx) {
        counts[id].fetch_add(1, std::memory_order_relaxed);
        if (2 * id < 2 * kLeafCount) {
          ctx.Spawn(2 * id);
          if (2 * id + 1 < 2 * kLeafCount) ctx.Spawn(2 * id + 1);
        }
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(s.ok());
  for (uint64_t id = 1; id < 2 * kLeafCount; ++id) {
    EXPECT_EQ(counts[id].load(), 1) << "task " << id;
  }
  EXPECT_EQ(stats.executed, 2 * kLeafCount - 1);
  EXPECT_EQ(stats.spawned, 2 * kLeafCount - 2);
}

TEST(RunTasksTest, SingleThreadPoolRunsInlineInFifoOrder) {
  // The 1-thread determinism anchor: seeds run in order, spawns append
  // to the back, so a 1-thread fleet sweep runs tenants in index order.
  ThreadPool pool(1);
  std::vector<uint64_t> order;
  Status s = pool.RunTasks(
      {1, 2, 3},
      [&](uint64_t id, ThreadPool::TaskContext& ctx) {
        EXPECT_EQ(ctx.worker(), 0u);
        order.push_back(id);
        if (id < 10) ctx.Spawn(id + 10);
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3, 11, 12, 13}));
}

TEST(RunTasksTest, FirstErrorWinsAndDrainsRemainingTasks) {
  ThreadPool pool(1);  // Inline: deterministic failure point.
  std::vector<uint64_t> seeds(100);
  for (uint64_t i = 0; i < 100; ++i) seeds[i] = i;
  size_t executed = 0;
  Status s = pool.RunTasks(seeds,
                           [&](uint64_t id, ThreadPool::TaskContext&) -> Status {
                             ++executed;
                             if (id == 5) return Status::Internal("boom at 5");
                             return Status::OK();
                           });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Inline FIFO: tasks 0..5 ran, everything after was drained.
  EXPECT_EQ(executed, 6u);
}

TEST(RunTasksTest, ParallelErrorStopsSpawning) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  std::vector<uint64_t> seeds(1000);
  for (uint64_t i = 0; i < 1000; ++i) seeds[i] = i;
  Status s = pool.RunTasks(seeds,
                           [&](uint64_t id, ThreadPool::TaskContext&) -> Status {
                             if (id == 3) return Status::InvalidArgument("bad");
                             executed.fetch_add(1, std::memory_order_relaxed);
                             return Status::OK();
                           });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_LT(executed.load(), 1000u);
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
      {0},
      [&](uint64_t id, ThreadPool::TaskContext& ctx) {
        if (id == 0) {
          for (uint64_t k = 1; k <= kFollowUps; ++k) ctx.Spawn(k);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(executed.load(), kFollowUps + 1);
  EXPECT_EQ(stats.executed, kFollowUps + 1);
  EXPECT_EQ(stats.spawned, kFollowUps);
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.busy_sec, 0.0);
}

TEST(RunTasksTest, PoolIsReusableAcrossTaskSweepsAndParallelFor) {
  // Chunked sweeps and task sweeps interleave on one pool without
  // leaking state between modes.
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<size_t> visited{0};
    ASSERT_TRUE(pool.ParallelFor(0, 32, 4, [&](size_t) {
      visited.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }).ok());
    ASSERT_EQ(visited.load(), 32u) << "round " << round;
    std::atomic<size_t> ran{0};
    ASSERT_TRUE(pool.RunTasks({1, 2, 3, 4},
                              [&](uint64_t, ThreadPool::TaskContext&) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                return Status::OK();
                              }).ok());
    ASSERT_EQ(ran.load(), 4u) << "round " << round;
  }
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
