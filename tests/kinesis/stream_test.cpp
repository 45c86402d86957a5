#include "kinesis/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace flower::kinesis {
namespace {

StreamConfig TestConfig(int shards = 2) {
  StreamConfig cfg;
  cfg.name = "clicks";
  cfg.initial_shards = shards;
  cfg.min_shards = 1;
  cfg.max_shards = 32;
  cfg.reshard_delay_sec = 60.0;
  return cfg;
}

Record Rec(uint64_t key, int32_t bytes = 256, int64_t entity = 7) {
  Record r;
  r.partition_key = key;
  r.size_bytes = bytes;
  r.entity_id = entity;
  return r;
}

TEST(StreamTest, PutAndGetRoundTrip) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig());
  ASSERT_TRUE(stream.PutRecord(Rec(0)).ok());  // Shard 0.
  ASSERT_TRUE(stream.PutRecord(Rec(1)).ok());  // Shard 1.
  EXPECT_EQ(stream.BacklogRecords(), 2u);
  auto recs = stream.GetRecords(0, 10);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].entity_id, 7);
  EXPECT_EQ(stream.BacklogRecords(), 1u);
}

TEST(StreamTest, RecordsAreFifoPerShard) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(stream.PutRecord(Rec(0, 256, i)).ok());
  }
  auto recs = stream.GetRecords(0, 3);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 3u);
  EXPECT_EQ((*recs)[0].entity_id, 0);
  EXPECT_EQ((*recs)[2].entity_id, 2);
}

TEST(StreamTest, ThrottlesBeyondPerShardRecordRate) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  // One shard accepts 1000 records at t=0 (full token bucket), then
  // throttles.
  int accepted = 0, throttled = 0;
  for (int i = 0; i < 1500; ++i) {
    Status st = stream.PutRecord(Rec(0, 64));
    if (st.ok()) ++accepted;
    else if (st.IsThrottled()) ++throttled;
  }
  EXPECT_EQ(accepted, 1000);
  EXPECT_EQ(throttled, 500);
  EXPECT_EQ(stream.total_throttled(), 500u);
}

TEST(StreamTest, TokensRefillOverTime) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(stream.PutRecord(Rec(0, 64)).ok());
  EXPECT_TRUE(stream.PutRecord(Rec(0, 64)).IsThrottled());
  sim.RunUntil(0.5);  // Half a second refills ~500 record tokens.
  int accepted = 0;
  for (int i = 0; i < 600; ++i) {
    if (stream.PutRecord(Rec(0, 64)).ok()) ++accepted;
  }
  EXPECT_NEAR(accepted, 500, 2);
}

TEST(StreamTest, ThrottlesOnByteRate) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  // 1 MiB/s per shard: four 300 KiB records exceed it.
  int accepted = 0;
  for (int i = 0; i < 4; ++i) {
    if (stream.PutRecord(Rec(0, 300 * 1024)).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 3);
}

TEST(StreamTest, MoreShardsMoreAggregateCapacity) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(4));
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    if (stream.PutRecord(Rec(static_cast<uint64_t>(i), 64)).ok()) ++accepted;
  }
  EXPECT_GT(accepted, 3500);  // ~4000 with 4 shards vs 1000 with 1.
}

TEST(StreamTest, GetRecordsValidatesShardIndex) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(2));
  EXPECT_EQ(stream.GetRecords(-1, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(stream.GetRecords(2, 10).status().code(),
            StatusCode::kOutOfRange);
}

TEST(StreamTest, UpdateShardCountAppliesAfterDelay) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(2));
  ASSERT_TRUE(stream.UpdateShardCount(8).ok());
  EXPECT_EQ(stream.shard_count(), 2);
  EXPECT_TRUE(stream.resharding());
  EXPECT_EQ(stream.target_shard_count(), 8);
  sim.RunUntil(61.0);
  EXPECT_EQ(stream.shard_count(), 8);
  EXPECT_FALSE(stream.resharding());
}

TEST(StreamTest, ShrinkPreservesBufferedRecords) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(4));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(stream.PutRecord(Rec(static_cast<uint64_t>(i), 64)).ok());
  }
  ASSERT_TRUE(stream.UpdateShardCount(1).ok());
  sim.RunUntil(61.0);
  EXPECT_EQ(stream.shard_count(), 1);
  EXPECT_EQ(stream.BacklogRecords(), 40u);  // Nothing lost in the merge.
}

TEST(StreamTest, UpdateShardCountValidatesBounds) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(2));
  EXPECT_FALSE(stream.UpdateShardCount(0).ok());
  EXPECT_FALSE(stream.UpdateShardCount(33).ok());
}

TEST(StreamTest, SupersedingReshardWins) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(2));
  ASSERT_TRUE(stream.UpdateShardCount(8).ok());
  sim.RunUntil(10.0);
  ASSERT_TRUE(stream.UpdateShardCount(3).ok());  // Supersedes the first.
  sim.RunUntil(200.0);
  EXPECT_EQ(stream.shard_count(), 3);
}

TEST(StreamTest, ReadCallRateLimited) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  ASSERT_TRUE(stream.PutRecord(Rec(0, 64)).ok());
  // 5 banked call tokens; the 6th immediate call throttles.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(stream.GetRecords(0, 1).ok()) << i;
  }
  auto sixth = stream.GetRecords(0, 1);
  EXPECT_TRUE(sixth.status().IsThrottled());
  EXPECT_EQ(stream.total_read_throttles(), 1u);
  // Call tokens refill with time.
  sim.RunUntil(1.0);
  EXPECT_TRUE(stream.GetRecords(0, 1).ok());
}

TEST(StreamTest, ReadByteRateBoundsBatchSize) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  // Buffer ~4 MiB of records (write limits allow 1 MiB/s, so spread
  // the puts over a few simulated seconds).
  int accepted = 0;
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    for (int i = 0; i < 2; ++i) {
      if (stream.PutRecord(Rec(0, 512 * 1024)).ok()) ++accepted;
    }
    return sim.Now() < 8.0;
  }).ok());
  sim.RunUntil(9.0);
  ASSERT_GE(accepted, 8);  // >= 4 MiB buffered.
  // One call drains at most ~2 MiB (the read bucket) + the first
  // record: 512 KiB records -> <= 5 records.
  auto batch = stream.GetRecords(0, 1000);
  ASSERT_TRUE(batch.ok());
  EXPECT_LE(batch->size(), 5u);
  EXPECT_GE(batch->size(), 4u);
  // Immediately reading again returns little (bytes exhausted) though
  // the call quota still has tokens.
  auto second = stream.GetRecords(0, 1000);
  ASSERT_TRUE(second.ok());
  EXPECT_LE(second->size(), 1u);
}

TEST(StreamTest, ScaleOutGrantsNoInstantTokenBurst) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(2));
  ASSERT_TRUE(stream.UpdateShardCount(8).ok());
  // Saturate the stream the instant the reshard lands (the reshard
  // event was scheduled first, so it fires first at t=60), then again
  // half a second later. Scale-out must conserve banked tokens: the
  // two full pre-reshard buckets (2 × 1000 records) are divided eight
  // ways, so exactly 2000 records can be accepted instantly. Were the
  // six new shards born with full buckets — or with a stale
  // last_refill minting a catch-up refill — this probe would admit
  // ~8000.
  int at_reshard = 0, at_half_sec = 0;
  ASSERT_TRUE(sim.ScheduleAt(60.0, [&] {
    ASSERT_EQ(stream.shard_count(), 8);
    for (int i = 0; i < 12000; ++i) {
      if (stream.PutRecord(Rec(static_cast<uint64_t>(i), 64)).ok()) {
        ++at_reshard;
      }
    }
  }).ok());
  ASSERT_TRUE(sim.ScheduleAt(60.5, [&] {
    for (int i = 0; i < 12000; ++i) {
      if (stream.PutRecord(Rec(static_cast<uint64_t>(i), 64)).ok()) {
        ++at_half_sec;
      }
    }
  }).ok());
  sim.RunUntil(61.0);
  EXPECT_EQ(at_reshard, 2000);
  // Refill over the following half second is rate-bound: 8 shards ×
  // 1000 rec/s × 0.5 s.
  EXPECT_NEAR(at_half_sec, 4000, 8);
  // Whole first post-reshard second stays within the aggregate
  // per-shard limit (8 × 1000 rec/s) plus the conserved carry-over.
  EXPECT_LE(at_reshard + at_half_sec, 8000);
}

TEST(StreamTest, IteratorAgeTracksOldestRecord) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  EXPECT_DOUBLE_EQ(stream.OldestRecordAgeSec(), 0.0);
  ASSERT_TRUE(stream.PutRecord(Rec(0, 64)).ok());
  sim.RunUntil(45.0);
  EXPECT_DOUBLE_EQ(stream.OldestRecordAgeSec(), 45.0);
  auto recs = stream.GetRecords(0, 10);
  ASSERT_TRUE(recs.ok());
  EXPECT_DOUBLE_EQ(stream.OldestRecordAgeSec(), 0.0);
}

TEST(StreamTest, PublishesMetrics) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  StreamConfig cfg = TestConfig(2);
  cfg.metrics_period_sec = 60.0;
  Stream stream(&sim, &metrics, cfg);
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    for (int i = 0; i < 100; ++i) {
      (void)stream.PutRecord(Rec(static_cast<uint64_t>(i), 64));
    }
    return sim.Now() < 300.0;
  }).ok());
  sim.RunUntil(301.0);
  cloudwatch::MetricId in{"Flower/Kinesis", "IncomingRecords", "clicks"};
  auto avg = metrics.GetStatistic(in, 0, 301, cloudwatch::Statistic::kAverage);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 6000.0, 200.0);  // 100 rec/s * 60 s periods.
  cloudwatch::MetricId util{"Flower/Kinesis", "WriteUtilization", "clicks"};
  auto u = metrics.GetStatistic(util, 0, 301, cloudwatch::Statistic::kAverage);
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR(*u, 5.0, 0.5);  // 100 rec/s over 2000 rec/s capacity.
}

TEST(StreamTest, WriteUtilizationTracksRate) {
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(1));
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    for (int i = 0; i < 500; ++i) {
      (void)stream.PutRecord(Rec(static_cast<uint64_t>(i), 64));
    }
    return sim.Now() < 20.0;
  }).ok());
  sim.RunUntil(20.0);
  EXPECT_NEAR(stream.CurrentWriteUtilizationPct(), 50.0, 5.0);
}

// One PutRecords call is the same sequence of PutRecord calls: each
// record is routed, refilled and charged in order, so the same records
// are accepted, buffered with the same stamps and counted the same,
// through throttling and through two reshards that land mid-run. A
// one-shard stream, which routes without a division, stays at one
// shard throughout.
TEST(StreamTest, PutRecordsEqualsSequenceOfPutRecord) {
  for (int shards : {2, 1}) {
    SCOPED_TRACE(shards);
    const bool reshard = shards > 1;
    sim::Simulation sim;
    Stream batched(&sim, nullptr, TestConfig(shards));
    Stream single(&sim, nullptr, TestConfig(shards));
    Rng rng(11);
    std::vector<Record> batch;
    uint64_t throttled = 0;
    int most_shards = 0;
    // About 165 simulated seconds; each reshard lands 60 s after its
    // request, before the next one.
    for (int step = 0; step < 600; ++step) {
      sim.RunUntil(sim.Now() + rng.Uniform(0.05, 0.5));
      if (reshard && step == 50) {
        ASSERT_TRUE(batched.UpdateShardCount(5).ok());
        ASSERT_TRUE(single.UpdateShardCount(5).ok());
      }
      if (reshard && step == 300) {
        ASSERT_TRUE(batched.UpdateShardCount(3).ok());
        ASSERT_TRUE(single.UpdateShardCount(3).ok());
      }
      // Up to ~3x the write limit of the largest shard count.
      batch.resize(static_cast<size_t>(rng.UniformInt(0, 1500)));
      for (Record& r : batch) {
        r = Rec(rng.Next(),
                static_cast<int32_t>(rng.UniformInt(64, 3000)),
                rng.UniformInt(-1000, 1000));
      }
      size_t failed = 0;
      for (const Record& r : batch) {
        failed += single.PutRecord(r).ok() ? 0 : 1;
      }
      ASSERT_EQ(batched.PutRecords(batch.data(), batch.size()), failed);
      throttled += failed;
      ASSERT_EQ(batched.total_incoming(), single.total_incoming());
      ASSERT_EQ(batched.total_throttled(), single.total_throttled());
      ASSERT_EQ(batched.shard_count(), single.shard_count());
      most_shards = std::max(most_shards, batched.shard_count());
      if (step % 7 == 0) {
        // Drain a shard on both: the buffered records are identical.
        int s = static_cast<int>(step / 7 % batched.shard_count());
        auto a = batched.GetRecords(s, 500);
        auto b = single.GetRecords(s, 500);
        ASSERT_EQ(a.ok(), b.ok());
        if (!a.ok()) continue;
        ASSERT_EQ(a->size(), b->size());
        for (size_t i = 0; i < a->size(); ++i) {
          EXPECT_EQ((*a)[i].timestamp, (*b)[i].timestamp);
          EXPECT_EQ((*a)[i].partition_key, (*b)[i].partition_key);
          EXPECT_EQ((*a)[i].entity_id, (*b)[i].entity_id);
          EXPECT_EQ((*a)[i].size_bytes, (*b)[i].size_bytes);
        }
      }
    }
    // Both reshards landed: 2 -> 5 -> 3 shards.
    EXPECT_EQ(most_shards, reshard ? 5 : 1);
    EXPECT_EQ(batched.shard_count(), reshard ? 3 : 1);
    EXPECT_GT(throttled, 1000u);
    EXPECT_EQ(batched.BacklogRecords(), single.BacklogRecords());
  }
}

// The read side of one shard as a record-at-a-time reader runs it:
// both read buckets refill whenever the shard is touched (a put routed
// to it, or a read), a read takes one call token, and records leave in
// FIFO order while the byte bucket lasts, the first of a call always.
struct OneAtATimeShard {
  std::deque<Record> buffer;
  double read_bytes = static_cast<double>(kKinesisShardReadBytesPerSec);
  double read_calls = kKinesisShardReadCallsPerSec;
  SimTime last_refill = 0.0;

  void Refill(SimTime now) {
    const double dt = now - last_refill;
    if (dt <= 0.0) return;
    const double byte_cap = static_cast<double>(kKinesisShardReadBytesPerSec);
    read_bytes = std::min(byte_cap, read_bytes + dt * byte_cap);
    read_calls = std::min(kKinesisShardReadCallsPerSec,
                          read_calls + dt * kKinesisShardReadCallsPerSec);
    last_refill = now;
  }

  /// False when the call quota is exhausted (the read throttles).
  bool Read(SimTime now, size_t max_records, std::vector<Record>* out) {
    Refill(now);
    if (read_calls < 1.0) return false;
    read_calls -= 1.0;
    const size_t n = std::min(max_records, buffer.size());
    for (size_t i = 0; i < n; ++i) {
      const Record& front = buffer.front();
      if (i > 0 && read_bytes < static_cast<double>(front.size_bytes)) break;
      read_bytes -= static_cast<double>(front.size_bytes);
      out->push_back(front);
      buffer.pop_front();
    }
    return true;
  }
};

// GetRecordsInto counts what the byte bucket admits and copies that
// prefix of the shard's ring in at most two runs; every batch, status
// and leftover token equals the record-at-a-time reader's. Record
// sizes are random, so the byte bucket cuts calls mid-batch, and the
// backlog stays far below the records that pass through a shard, so
// each ring's head wraps many times and reads straddle the wrap. Times
// move in steps of 1/64 s, so every refill is exact and this model's
// arithmetic equals the stream's on any target, fused multiply-adds
// included.
TEST(StreamTest, GetRecordsIntoEqualsOneAtATimeReader) {
  constexpr int kShards = 2;
  sim::Simulation sim;
  Stream stream(&sim, nullptr, TestConfig(kShards));
  std::vector<OneAtATimeShard> model(kShards);
  Rng rng(23);
  std::vector<Record> got, want;
  size_t reads = 0, cut_by_bytes = 0, throttled = 0, passed = 0;
  size_t most_buffered = 0;  // The largest backlog of one shard.
  for (int step = 0; step < 3000; ++step) {
    sim.RunUntil(sim.Now() +
                 static_cast<double>(rng.UniformInt(4, 64)) / 64.0);
    const SimTime now = sim.Now();
    const int puts = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < puts; ++i) {
      Record r = Rec(rng.Next(),
                     static_cast<int32_t>(rng.UniformInt(16, 256) * 1024),
                     rng.UniformInt(-1000, 1000));
      OneAtATimeShard& shard = model[r.partition_key % kShards];
      shard.Refill(now);
      if (!stream.PutRecord(r).ok()) continue;
      r.timestamp = now;
      shard.buffer.push_back(r);
    }
    for (const OneAtATimeShard& shard : model) {
      most_buffered = std::max(most_buffered, shard.buffer.size());
    }
    if (!rng.Bernoulli(0.3)) continue;
    // Up to seven calls at once: bursts past the call quota throttle.
    const int calls = static_cast<int>(rng.UniformInt(1, 7));
    for (int c = 0; c < calls; ++c) {
      const int s = static_cast<int>(rng.UniformInt(0, kShards - 1));
      const size_t max = static_cast<size_t>(rng.UniformInt(1, 48));
      const size_t backlog = model[s].buffer.size();
      got.assign(3, Rec(0));  // Reads append behind what `out` holds.
      want = got;
      Status st = stream.GetRecordsInto(s, max, &got);
      const bool ok = model[s].Read(now, max, &want);
      ASSERT_EQ(st.ok(), ok) << "step " << step;
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].timestamp, want[i].timestamp);
        ASSERT_EQ(got[i].partition_key, want[i].partition_key);
        ASSERT_EQ(got[i].entity_id, want[i].entity_id);
        ASSERT_EQ(got[i].size_bytes, want[i].size_bytes);
      }
      if (!ok) {
        ++throttled;
        continue;
      }
      ++reads;
      passed += got.size() - 3;
      if (got.size() - 3 < std::min(max, backlog)) ++cut_by_bytes;
    }
  }
  EXPECT_EQ(stream.BacklogRecords(),
            model[0].buffer.size() + model[1].buffer.size());
  EXPECT_GT(reads, 1000u);
  EXPECT_GT(cut_by_bytes, 100u);
  EXPECT_GT(throttled, 0u);
  // A ring holds less than twice the largest backlog (it doubles only
  // when full), so many times that passing through wraps each head
  // many times.
  EXPECT_GT(passed, 40u * most_buffered);
}

}  // namespace
}  // namespace flower::kinesis
