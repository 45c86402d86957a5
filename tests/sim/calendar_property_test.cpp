// Property test pinning the timer-wheel calendar (sim::Simulation) to
// the binary-heap calendar it replaced (sim::RefCalendar): identical
// randomized schedules must execute in byte-identical order on both
// engines. Covers the order-sensitive corners the wheel must preserve:
// same-instant FIFO bursts, periodics landing exactly on RunUntil
// boundaries, in-callback reschedules (including zero-delay chains),
// far-future events beyond the 64 s wheel horizon, Step interleaves,
// and RunUntil calls in the past. The later cases target the cursor's
// jump over empty buckets (driven by the occupancy bitmap) and the
// pooled bucket storage: coarse cadences with long gaps, jumps that
// wrap past the last bucket, overflow events entering the horizon
// during a jump, a cursor parked between occupied buckets, and a
// rotation with every bucket occupied at once. One fixed mixed schedule
// compares firing times bitwise.

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ref_calendar.h"
#include "sim/simulation.h"

namespace flower::sim {
namespace {

using Log = std::vector<std::pair<int, SimTime>>;

/// Drives one engine through a seeded randomized schedule, recording
/// (event id, firing time) for every execution. Both engines are run
/// with the same seed; the random draws made inside callbacks happen in
/// execution order, so any order divergence makes the logs differ (the
/// failure we are hunting) rather than masking itself.
template <typename Engine>
class ScriptRunner {
 public:
  explicit ScriptRunner(uint64_t seed) : rng_(seed) {}

  Log Run() {
    // Bursts at a handful of shared instants: FIFO within an instant.
    for (int i = 0; i < 48; ++i) {
      ScheduleOneShot(static_cast<double>(rng_() % 7) * 2.5);
    }
    // Far-future events beyond the 64 s wheel horizon (overflow heap).
    for (int i = 0; i < 16; ++i) {
      ScheduleOneShot(70.0 + static_cast<double>(rng_() % 4000) * 0.1);
    }
    // Periodics; the first lands exactly on the RunUntil(10.0) boundary.
    AddPeriodic(2.5, 2.5, 9);
    AddPeriodic(1.0, 3.0, 12);
    AddPeriodic(0.75, 0.5, 40);
    eng_.RunUntil(10.0);
    eng_.RunUntil(4.0);  // In the past: must be a no-op.
    for (int i = 0; i < 7; ++i) eng_.Step();
    eng_.RunUntil(80.0);
    while (eng_.Step()) {
    }
    log_.emplace_back(-1, eng_.Now());
    log_.emplace_back(static_cast<int>(eng_.events_executed()),
                      static_cast<double>(eng_.pending_events()));
    return log_;
  }

 private:
  void ScheduleOneShot(double t) {
    int id = next_id_++;
    Status st = eng_.ScheduleAt(t, [this, id] { OnFire(id); });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void AddPeriodic(double start, double period, int fires) {
    int id = next_id_++;
    auto left = std::make_shared<int>(fires);
    Status st = eng_.SchedulePeriodic(start, period, [this, id, left] {
      log_.emplace_back(id, eng_.Now());
      return --*left > 0;
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void OnFire(int id) {
    log_.emplace_back(id, eng_.Now());
    if (budget_ <= 0) return;
    uint64_t roll = rng_() % 100;
    // In-callback reschedules: zero-delay (same instant, later seq),
    // sub-tick, near-future, and past-the-horizon.
    if (roll < 25) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(0.0, [this, id2] { OnFire(id2); });
    } else if (roll < 45) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(0.003, [this, id2] { OnFire(id2); });
    } else if (roll < 65) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(3.7, [this, id2] { OnFire(id2); });
    } else if (roll < 75) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(120.0, [this, id2] { OnFire(id2); });
    }
  }

  Engine eng_;
  std::mt19937_64 rng_;
  Log log_;
  int next_id_ = 0;
  int budget_ = 200;
};

TEST(CalendarPropertyTest, RandomizedSchedulesMatchReference) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Log wheel = ScriptRunner<Simulation>(seed).Run();
    Log heap = ScriptRunner<RefCalendar>(seed).Run();
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_EQ(wheel[i].first, heap[i].first)
          << "seed " << seed << " divergence at step " << i;
      ASSERT_DOUBLE_EQ(wheel[i].second, heap[i].second)
          << "seed " << seed << " divergence at step " << i;
    }
  }
}

TEST(CalendarPropertyTest, SameInstantBurstPreservesSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  // 300 events at one instant: more than enough to force bucket
  // activation and mid-burst growth of the active vector.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); }).ok());
  }
  sim.RunUntil(1.0);
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarPropertyTest, ZeroDelayChainAtBoundaryMatchesReference) {
  // A callback firing exactly at the RunUntil boundary spawns a
  // zero-delay chain; every link must run inside the same RunUntil on
  // both engines, after everything previously scheduled at that time.
  auto drive = [](auto& eng) {
    Log log;
    for (int i = 0; i < 3; ++i) {
      (void)eng.ScheduleAt(5.0, [&log, &eng, i] {
        log.emplace_back(i, eng.Now());
      });
    }
    std::function<void(int)> chain = [&](int depth) {
      log.emplace_back(100 + depth, eng.Now());
      if (depth < 4) {
        (void)eng.ScheduleAfter(0.0, [&chain, depth] { chain(depth + 1); });
      }
    };
    (void)eng.ScheduleAt(5.0, [&chain] { chain(0); });
    eng.RunUntil(5.0);
    log.emplace_back(-1, static_cast<double>(eng.pending_events()));
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, PeriodicAcrossBoundariesMatchesReference) {
  auto drive = [](auto& eng) {
    Log log;
    (void)eng.SchedulePeriodic(2.0, 2.0, [&log, &eng] {
      log.emplace_back(1, eng.Now());
      return eng.Now() < 19.0;
    });
    (void)eng.SchedulePeriodic(1.0, 2.0, [&log, &eng] {
      log.emplace_back(2, eng.Now());
      return eng.Now() < 14.0;
    });
    // Boundaries land exactly on firings (10.0), between them, and in
    // the past (8.0: no-op).
    eng.RunUntil(10.0);
    eng.RunUntil(8.0);
    eng.RunUntil(10.5);
    eng.RunUntil(20.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, OverflowMigrationKeepsOrder) {
  // Events far beyond the wheel horizon interleaved with near events;
  // order across the horizon boundary must match the reference.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    (void)eng.ScheduleAt(100.0, [&] { fire(1); });
    (void)eng.ScheduleAt(63.9, [&] { fire(2); });
    (void)eng.ScheduleAt(64.1, [&] { fire(3); });
    (void)eng.ScheduleAt(100.0, [&] { fire(4); });  // Same far instant.
    (void)eng.ScheduleAt(1.0, [&] {
      fire(5);
      // Scheduled from inside a callback, still beyond the horizon.
      (void)eng.ScheduleAt(100.0, [&] { fire(6); });
    });
    eng.RunUntil(500.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, StepDrainsInReferenceOrder) {
  auto drive = [](auto& eng) {
    Log log;
    for (int i = 0; i < 5; ++i) {
      (void)eng.ScheduleAt(3.0, [&log, &eng, i] {
        log.emplace_back(i, eng.Now());
      });
    }
    (void)eng.ScheduleAt(90.0, [&log, &eng] {  // Overflow event.
      log.emplace_back(99, eng.Now());
    });
    while (eng.Step()) {
    }
    EXPECT_FALSE(eng.Step());  // Idempotent on an empty calendar.
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

// Tick arithmetic for the cases below: the wheel has 64 ticks per
// second and 4096 buckets, so bucket b of rotation r starts at
// (4096 * r + b) / 64 seconds.
constexpr double kTick = 1.0 / 64.0;

TEST(CalendarPropertyTest, CoarsePeriodicsWithLongGapsMatchReference) {
  // 5 s, 60 s and 900 s cadences leave thousands of empty buckets
  // between firings and put the 900 s task in the overflow heap;
  // boundaries land on firings, between them, and far past both.
  auto drive = [](auto& eng) {
    Log log;
    int id = 0;
    for (double period : {5.0, 60.0, 900.0}) {
      const int me = id++;
      (void)eng.SchedulePeriodic(period, period, [&log, &eng, me] {
        log.emplace_back(me, eng.Now());
        return true;
      });
    }
    (void)eng.SchedulePeriodic(0.0, 900.0, [&log, &eng] {
      log.emplace_back(10, eng.Now());
      // A one-shot deep inside the next gap.
      (void)eng.ScheduleAfter(451.3, [&log, &eng] {
        log.emplace_back(11, eng.Now());
      });
      return true;
    });
    for (double end : {60.0, 61.0, 899.99, 900.0, 1800.0, 1802.5, 3600.0}) {
      eng.RunUntil(end);
      log.emplace_back(-1, eng.Now());
    }
    log.emplace_back(-2, static_cast<double>(eng.events_executed()));
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, JumpWrappingPastLastBucketMatchesReference) {
  auto drive = [](auto& eng) {
    Log log;
    auto at = [&log, &eng](int id, double t) {
      (void)eng.ScheduleAt(t, [&log, &eng, id] {
        log.emplace_back(id, eng.Now());
      });
    };
    // From bucket 4000 the next occupied bucket is 64 of the next
    // rotation.
    (void)eng.ScheduleAt(4000 * kTick, [&] {
      log.emplace_back(1, eng.Now());
      at(2, (4096 + 64) * kTick);
    });
    eng.RunUntil(70.0);
    log.emplace_back(-1, eng.Now());
    // From bucket 4090 the only occupied bucket is 4084 of the next
    // rotation: below the cursor in the same bitmap word, so the scan
    // wraps all the way round to the word it started in.
    (void)eng.ScheduleAt((4096 + 4090) * kTick, [&] {
      log.emplace_back(3, eng.Now());
      at(4, (8192 + 4084) * kTick);
      at(5, (8192 + 4084) * kTick + kTick / 4);
    });
    eng.RunUntil(300.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  Log log = drive(wheel);
  EXPECT_EQ(log.size(), 7u);
  EXPECT_EQ(log, drive(heap));
}

TEST(CalendarPropertyTest, OverflowEnteringHorizonDuringJumpMatchesReference) {
  // The jump from 10 s to 60 s moves the horizon past 73-74 s, pulling
  // those overflow events into buckets the cursor has not yet reached;
  // callbacks then schedule around them, including at the same instant.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    (void)eng.ScheduleAt(10.0, [&] { fire(1); });
    (void)eng.ScheduleAt(73.0, [&] { fire(2); });  // Overflow.
    (void)eng.ScheduleAt(74.0, [&] { fire(3); });  // Overflow.
    (void)eng.ScheduleAt(130.0, [&] { fire(4); });  // Still overflow at 60 s.
    (void)eng.ScheduleAt(60.0, [&] {
      fire(5);
      (void)eng.ScheduleAt(73.0, [&] { fire(6); });  // Same instant, later.
      (void)eng.ScheduleAt(72.99, [&] { fire(7); });
      (void)eng.ScheduleAt(124.5, [&] { fire(8); });  // Overflow again.
    });
    eng.RunUntil(59.0);  // Parks between 10 s and 60 s.
    eng.RunUntil(73.0);
    log.emplace_back(-1, eng.Now());
    eng.RunUntil(1000.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, OverflowEnteringHorizonWhileParkedMatchesReference) {
  // Parking the cursor at a RunUntil limit moves the horizon too: the
  // 70 s overflow event enters it when the cursor parks at 10 s, so the
  // later jump towards the freshly scheduled 72 s event must not pass it.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    (void)eng.ScheduleAt(1.0, [&] { fire(1); });
    (void)eng.ScheduleAt(70.0, [&] { fire(2); });  // Overflow.
    eng.RunUntil(10.0);  // The wheel empties; the cursor parks.
    (void)eng.ScheduleAt(72.0, [&] { fire(3); });
    eng.RunUntil(100.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, ParkedCursorThenSameTickScheduleMatchesReference) {
  // RunUntil(5.0) parks the cursor on tick 320, between the occupied
  // buckets of 1 s and 10 s. Events then scheduled on that very tick
  // (at and just after the boundary) must run before the 10 s event.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    (void)eng.ScheduleAt(1.0, [&] { fire(1); });
    (void)eng.ScheduleAt(10.0, [&] { fire(2); });
    eng.RunUntil(5.0);
    (void)eng.ScheduleAt(5.0 + kTick / 2, [&] { fire(3); });
    (void)eng.ScheduleAt(5.0, [&] { fire(4); });
    (void)eng.ScheduleAt(5.0, [&] {
      fire(5);
      (void)eng.ScheduleAfter(0.0, [&] { fire(6); });
    });
    eng.RunUntil(5.0);  // Runs the boundary events only.
    log.emplace_back(-1, eng.Now());
    eng.RunUntil(20.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, StepFromParkedCursorMatchesReference) {
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    (void)eng.ScheduleAt(1.0, [&] { fire(1); });
    (void)eng.ScheduleAt(40.0, [&] { fire(2); });
    (void)eng.ScheduleAt(300.0, [&] { fire(3); });  // Overflow.
    eng.RunUntil(7.0);  // Parks between 1 s and 40 s.
    EXPECT_TRUE(eng.Step());  // Jumps to 40 s.
    log.emplace_back(-1, eng.Now());
    eng.RunUntil(100.0);  // Parks with only the overflow event left.
    EXPECT_TRUE(eng.Step());  // Jumps to 300 s.
    log.emplace_back(-1, eng.Now());
    EXPECT_FALSE(eng.Step());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, EveryBucketOccupiedMatchesReference) {
  // One event in each of the 4096 buckets at once (the pool's maximum),
  // scheduled in shuffled order, each rescheduling itself one rotation
  // later so the full wheel is rebuilt from recycled buffers.
  auto drive = [](auto& eng) {
    Log log;
    std::vector<int> ticks(4096);
    for (int i = 0; i < 4096; ++i) ticks[static_cast<size_t>(i)] = i;
    std::shuffle(ticks.begin(), ticks.end(), std::mt19937_64(7));
    for (int tick : ticks) {
      (void)eng.ScheduleAt((tick + 0.5) * kTick, [&log, &eng, tick] {
        log.emplace_back(tick, eng.Now());
        (void)eng.ScheduleAfter(4096 * kTick, [&log, &eng, tick] {
          log.emplace_back(10000 + tick, eng.Now());
        });
      });
    }
    log.emplace_back(-1, static_cast<double>(eng.pending_events()));
    eng.RunUntil(100.0);
    log.emplace_back(-1, static_cast<double>(eng.pending_events()));
    eng.RunUntil(200.0);
    log.emplace_back(-1, static_cast<double>(eng.events_executed()));
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  Log a = drive(wheel);
  Log b = drive(heap);
  EXPECT_EQ(a.size(), 2u * 4096u + 3u);
  EXPECT_EQ(a, b);
}

TEST(CalendarPropertyTest, SparseRandomizedSchedulesMatchReference) {
  // Few events spread over long horizons with delays that straddle tick
  // and horizon edges, random RunUntil limits and Step interleaves: the
  // cursor mostly jumps rather than walks.
  auto drive = [](auto& eng, uint64_t seed) {
    Log log;
    std::mt19937_64 rng(seed);
    int next_id = 0;
    int budget = 400;
    const double delays[] = {0.0,  kTick / 3, kTick,  1.0,    63.99,
                             64.0, 64.01,     127.5, 900.0, 3600.0};
    std::function<void(double)> at = [&](double t) {
      const int id = next_id++;
      (void)eng.ScheduleAt(t, [&, id] {
        log.emplace_back(id, eng.Now());
        if (budget-- <= 0) return;
        at(eng.Now() + delays[rng() % 10]);
        if (rng() % 4 == 0) at(eng.Now() + delays[rng() % 10]);
      });
    };
    for (int i = 0; i < 12; ++i) {
      at(static_cast<double>(rng() % 20000) * 0.37);
    }
    double end = 0.0;
    for (int round = 0; round < 40; ++round) {
      end += static_cast<double>(rng() % 5000) * 0.11;
      eng.RunUntil(end);
      if (rng() % 3 == 0) eng.Step();
      log.emplace_back(-1, eng.Now());
    }
    while (eng.Step()) {
    }
    log.emplace_back(-2, static_cast<double>(eng.events_executed()));
    return log;
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Simulation wheel;
    RefCalendar heap;
    ASSERT_EQ(drive(wheel, seed), drive(heap, seed)) << "seed " << seed;
  }
}

TEST(CalendarPropertyTest, MixedScheduleMatchesReferenceBitwise) {
  // Same-instant bursts on and off tick boundaries with zero-delay
  // follow-ups, far-future events beyond the 64 s horizon, a periodic
  // that stops itself, and a RunUntil into the past. Times compare
  // bitwise: the wheel stores exact doubles, so even the sign of zero
  // must survive.
  auto drive = [](auto& eng) {
    Log log;
    int next_id = 0;
    for (int burst = 0; burst < 50; ++burst) {
      double t = 0.1 * static_cast<double>(burst % 7) + 0.25;
      for (int i = 0; i < 8; ++i) {
        int id = next_id++;
        (void)eng.ScheduleAt(t, [&log, &eng, id] {
          log.emplace_back(id, eng.Now());
          // Every fourth event spawns a zero-delay follow-up.
          if ((id & 3) == 0) {
            (void)eng.ScheduleAfter(0.0, [&log, &eng, id] {
              log.emplace_back(-id, eng.Now());
            });
          }
        });
      }
    }
    for (int i = 0; i < 40; ++i) {
      int id = 100000 + i;
      double t = 70.0 + 3.3 * static_cast<double>(i % 13);
      (void)eng.ScheduleAt(t, [&log, &eng, id] {
        log.emplace_back(id, eng.Now());
      });
    }
    (void)eng.SchedulePeriodic(0.5, 0.5, [&log, &eng] {
      log.emplace_back(777, eng.Now());
      return eng.Now() < 90.0;
    });
    eng.RunUntil(10.0);
    eng.RunUntil(6.0);  // Past: no-op.
    while (eng.Step()) {
    }
    log.emplace_back(-999999, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  Log a = drive(wheel);
  Log b = drive(heap);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first) << "divergence at step " << i;
    ASSERT_EQ(std::memcmp(&a[i].second, &b[i].second, sizeof(double)), 0)
        << "step " << i << ": " << a[i].second << " vs " << b[i].second;
  }
}

TEST(CalendarPropertyTest, NonFiniteTimesRejectedLikeReference) {
  auto drive = [](auto& eng) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<bool> ok = {
        eng.ScheduleAt(nan, [] {}).ok(),
        eng.ScheduleAt(inf, [] {}).ok(),
        eng.ScheduleAfter(nan, [] {}).ok(),
        eng.ScheduleAfter(-inf, [] {}).ok(),
        eng.SchedulePeriodic(nan, 1.0, [] { return true; }).ok(),
        eng.SchedulePeriodic(1.0, nan, [] { return true; }).ok(),
        eng.SchedulePeriodic(1.0, inf, [] { return true; }).ok(),
    };
    eng.RunUntil(nan);
    ok.push_back(eng.Now() == 0.0 && eng.pending_events() == 0);
    return ok;
  };
  Simulation wheel;
  RefCalendar heap;
  std::vector<bool> expected(7, false);
  expected.push_back(true);
  EXPECT_EQ(drive(wheel), expected);
  EXPECT_EQ(drive(heap), expected);
}

}  // namespace
}  // namespace flower::sim
