#include "dynamodb/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "common/random.h"

namespace flower::dynamodb {
namespace {

TableConfig TestConfig(double wcu = 10.0, double rcu = 10.0) {
  TableConfig cfg;
  cfg.name = "aggregates";
  cfg.initial_wcu = wcu;
  cfg.initial_rcu = rcu;
  cfg.min_wcu = 1.0;
  cfg.max_wcu = 1000.0;
  cfg.min_rcu = 1.0;
  cfg.max_rcu = 1000.0;
  cfg.provisioning_delay_sec = 30.0;
  cfg.burst_window_sec = 1.0;  // Tight burst for predictable tests.
  return cfg;
}

TEST(TableTest, PutAndGetItemRoundTrip) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  ASSERT_TRUE(table.PutItem(42, 1234.5, 100).ok());
  auto v = table.GetItem(42, 100);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1234.5);
  EXPECT_EQ(table.ItemCount(), 1u);
}

TEST(TableTest, OverwriteKeepsSingleItem) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  ASSERT_TRUE(table.PutItem(1, 3.0, 100).ok());
  ASSERT_TRUE(table.PutItem(1, 1.0 / 3.0, 100).ok());
  EXPECT_EQ(table.ItemCount(), 1u);
  EXPECT_EQ(*table.GetItem(1, 100), 1.0 / 3.0);  // Stored exactly.
}

TEST(TableTest, MissingKeyIsNotFound) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  EXPECT_EQ(table.GetItem(9, 100).status().code(), StatusCode::kNotFound);
}

TEST(TableTest, InvalidSizesRejected) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  EXPECT_FALSE(table.PutItem(1, 1.0, 0).ok());
  EXPECT_FALSE(table.GetItem(1, -5).ok());
}

TEST(TableTest, WritesThrottleBeyondProvisionedCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  // Burst window 1 s → 10 banked WCU; small items cost 1 WCU each.
  int ok = 0, throttled = 0;
  for (int i = 0; i < 30; ++i) {
    Status st = table.PutItem(i, 1.0, 100);
    if (st.ok()) ++ok;
    else if (st.IsThrottled()) ++throttled;
  }
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(throttled, 20);
  EXPECT_EQ(table.total_throttled_writes(), 20u);
}

TEST(TableTest, LargeItemsConsumeMoreCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  // A 3.5 KiB item costs ceil(3.5) = 4 WCU.
  ASSERT_TRUE(table.PutItem(1, 1.0, 3584).ok());
  ASSERT_TRUE(table.PutItem(2, 1.0, 3584).ok());
  // 8 consumed; a third 4-WCU write exceeds the 10 banked.
  EXPECT_TRUE(table.PutItem(3, 1.0, 3584).IsThrottled());
}

TEST(TableTest, ReadsUse4KiBUnits) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0, 2.0));
  ASSERT_TRUE(table.PutItem(1, 1.0, 100).ok());
  // 2 banked RCU; an 8 KiB read costs 2 RCU.
  ASSERT_TRUE(table.GetItem(1, 8192).ok());
  EXPECT_TRUE(table.GetItem(1, 100).status().IsThrottled());
}

TEST(TableTest, TokensRefillAtProvisionedRate) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(table.PutItem(i, 1.0, 100).ok());
  EXPECT_TRUE(table.PutItem(99, 1.0, 100).IsThrottled());
  sim.RunUntil(0.5);  // Refills 5 WCU.
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    if (table.PutItem(100 + i, 1.0, 100).ok()) ++ok;
  }
  EXPECT_EQ(ok, 5);
}

TEST(TableTest, UpdateItemAddImplementsAtomicCounter) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(100.0));
  auto v1 = table.UpdateItemAdd(7, 3.0, 100);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(*v1, 3.0);  // Missing item starts from 0.
  auto v2 = table.UpdateItemAdd(7, 2.5, 100);
  ASSERT_TRUE(v2.ok());
  EXPECT_DOUBLE_EQ(*v2, 5.5);
  auto stored = table.GetItem(7, 100);
  ASSERT_TRUE(stored.ok());
  EXPECT_DOUBLE_EQ(*stored, 5.5);
}

TEST(TableTest, UpdateItemAddAccumulatesInPlace) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(100.0));
  ASSERT_TRUE(table.PutItem(3, 0.5, 100).ok());
  double expected = 0.5;
  for (int i = 0; i < 10; ++i) {
    expected += 0.1;
    auto v = table.UpdateItemAdd(3, 0.1, 100);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, expected);  // Exact: no text round trip between adds.
  }
  EXPECT_EQ(*table.GetItem(3, 100), expected);
  EXPECT_EQ(table.ItemCount(), 1u);
}

TEST(TableTest, UpdateItemAddConsumesWriteCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(5.0));
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    if (table.UpdateItemAdd(1, 1.0, 100).ok()) ++ok;
  }
  EXPECT_EQ(ok, 5);  // 5 banked WCU (1 s burst window).
}

TEST(TableTest, DeleteItemIsIdempotentAndBilled) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(100.0));
  ASSERT_TRUE(table.PutItem(1, 1.0, 100).ok());
  EXPECT_EQ(table.ItemCount(), 1u);
  ASSERT_TRUE(table.DeleteItem(1, 100).ok());
  EXPECT_EQ(table.ItemCount(), 0u);
  ASSERT_TRUE(table.DeleteItem(1, 100).ok());  // Missing key: still OK.
  EXPECT_EQ(table.GetItem(1, 100).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table.total_writes(), 3u);  // All three consumed capacity.
}

TEST(TableTest, DeleteItemThrottlesWithoutCapacity) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(2.0));
  ASSERT_TRUE(table.PutItem(1, 1.0, 100).ok());
  ASSERT_TRUE(table.PutItem(2, 1.0, 100).ok());
  EXPECT_TRUE(table.DeleteItem(1, 100).IsThrottled());
}

TEST(TableTest, ProvisioningChangeAppliesAfterDelay) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  ASSERT_TRUE(table.SetProvisionedThroughput(100.0, 10.0).ok());
  EXPECT_TRUE(table.provisioning_in_flight());
  EXPECT_DOUBLE_EQ(table.provisioned_wcu(), 10.0);
  sim.RunUntil(31.0);
  EXPECT_DOUBLE_EQ(table.provisioned_wcu(), 100.0);
  EXPECT_FALSE(table.provisioning_in_flight());
}

TEST(TableTest, ProvisioningBoundsEnforced) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig());
  EXPECT_FALSE(table.SetProvisionedThroughput(0.5, 10.0).ok());
  EXPECT_FALSE(table.SetProvisionedThroughput(10.0, 2000.0).ok());
}

TEST(TableTest, DailyDecreaseLimit) {
  sim::Simulation sim;
  TableConfig cfg = TestConfig(100.0);
  cfg.max_decreases_per_day = 2;
  Table table(&sim, nullptr, cfg);
  ASSERT_TRUE(table.SetProvisionedThroughput(90.0, 10.0).ok());
  sim.RunUntil(40.0);
  ASSERT_TRUE(table.SetProvisionedThroughput(80.0, 10.0).ok());
  sim.RunUntil(80.0);
  // Third decrease within the same simulated day: rejected.
  Status st = table.SetProvisionedThroughput(70.0, 10.0);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // Increases are always allowed.
  EXPECT_TRUE(table.SetProvisionedThroughput(200.0, 10.0).ok());
}

TEST(TableTest, DecreaseLimitResetsNextDay) {
  sim::Simulation sim;
  TableConfig cfg = TestConfig(100.0);
  cfg.max_decreases_per_day = 1;
  Table table(&sim, nullptr, cfg);
  ASSERT_TRUE(table.SetProvisionedThroughput(90.0, 10.0).ok());
  sim.RunUntil(40.0);
  EXPECT_FALSE(table.SetProvisionedThroughput(80.0, 10.0).ok());
  sim.RunUntil(86401.0);  // Next simulated day.
  EXPECT_TRUE(table.SetProvisionedThroughput(80.0, 10.0).ok());
}

TEST(TableTest, SupersedingProvisioningChangeWins) {
  sim::Simulation sim;
  Table table(&sim, nullptr, TestConfig(10.0));
  ASSERT_TRUE(table.SetProvisionedThroughput(100.0, 10.0).ok());
  sim.RunUntil(10.0);
  ASSERT_TRUE(table.SetProvisionedThroughput(50.0, 10.0).ok());
  sim.RunUntil(100.0);
  EXPECT_DOUBLE_EQ(table.provisioned_wcu(), 50.0);
}

TEST(TableTest, PublishesMetrics) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  TableConfig cfg = TestConfig(20.0);
  cfg.metrics_period_sec = 60.0;
  Table table(&sim, &metrics, cfg);
  ASSERT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [&] {
    for (int i = 0; i < 10; ++i) {
      (void)table.PutItem(i, 1.0, 100);
    }
    return sim.Now() < 300.0;
  }).ok());
  sim.RunUntil(301.0);
  cloudwatch::MetricId util{"Flower/DynamoDB", "WriteUtilization",
                            "aggregates"};
  auto u = metrics.GetStatistic(util, 0, 301,
                                cloudwatch::Statistic::kAverage);
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR(*u, 50.0, 5.0);  // 10 WCU/s consumed of 20 provisioned.
  EXPECT_EQ(table.ItemCount(), 10u);
}

// Many keys, with puts, update-adds and deletes interleaved: the table
// holds exactly what a std::map given the same writes holds.
TEST(TableTest, ManyKeysMatchMapReference) {
  sim::Simulation sim;
  TableConfig cfg;
  cfg.initial_wcu = 40000.0;
  cfg.initial_rcu = 40000.0;
  Table table(&sim, nullptr, cfg);
  std::map<int64_t, double> ref;
  Rng rng(5);
  auto key = [&rng] {
    return rng.Bernoulli(0.5) ? rng.UniformInt(-3000, 3000)
                              : rng.UniformInt(INT64_MIN / 2, INT64_MAX / 2);
  };
  for (int op = 0; op < 20000; ++op) {
    if (op % 1000 == 0) sim.RunUntil(sim.Now() + 1.0);
    int64_t k = key();
    double v = rng.Uniform(-10.0, 10.0);
    switch (rng.UniformInt(0, 2)) {
      case 0:
        ASSERT_TRUE(table.PutItem(k, v, 128).ok());
        ref[k] = v;
        break;
      case 1: {
        auto got = table.UpdateItemAdd(k, v, 128);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, ref[k] += v);
        break;
      }
      default:
        ASSERT_TRUE(table.DeleteItem(k, 128).ok());
        ref.erase(k);
        break;
    }
    ASSERT_EQ(table.ItemCount(), ref.size());
  }
  EXPECT_GT(ref.size(), 1000u);
  for (const auto& [k, v] : ref) {
    auto got = table.GetItem(k, 128);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(table.GetItem(3001, 128).status().code(), StatusCode::kNotFound);
}

// Reference: the persist bolt's one-at-a-time PutItem loop before batch
// writes, transcribed over a std::map and Table's token arithmetic.
// Each item refills at the call's time, bills ceil(size / 1 KiB) WCU
// if the tokens cover it, and the loop stops at the first throttle. A
// non-positive size is refused per item without billing.
struct OneAtATime {
  OneAtATime(double wcu_, double burst_sec_)
      : wcu(wcu_), burst_sec(burst_sec_), tokens(wcu_) {}

  double wcu;
  double burst_sec;
  double tokens;  // A fresh table banks one second of capacity.
  SimTime last_refill = 0.0;
  double consumed = 0.0;
  uint64_t writes = 0;
  uint64_t throttled = 0;
  std::map<int64_t, double> items;

  void Refill(SimTime now) {
    double dt = now - last_refill;
    if (dt <= 0.0) return;
    tokens = std::min(wcu * burst_sec, tokens + dt * wcu);
    last_refill = now;
  }
  size_t Put(const std::vector<PutRequest>& batch, int32_t size_bytes,
             SimTime now, Status* status) {
    size_t written = 0;
    for (const PutRequest& item : batch) {
      if (size_bytes <= 0) {
        if (status->ok()) *status = Status::InvalidArgument("size");
        continue;
      }
      Refill(now);
      double cost = std::max(
          1.0, std::ceil(static_cast<double>(size_bytes) /
                         static_cast<double>(kDynamoWcuBytes)));
      if (tokens < cost) {
        ++throttled;
        if (status->ok()) *status = Status::Throttled("write throttled");
        break;
      }
      tokens -= cost;
      consumed += cost;
      ++writes;
      items[item.key] = item.value;
      ++written;
    }
    return written;
  }
  // The metrics period starts at 0 and never rolls (no metric store).
  double UtilizationPct(SimTime now) const {
    if (now <= 0.0 || wcu <= 0.0) return 0.0;
    return 100.0 * (consumed / now) / wcu;
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// PutItems equals the one-at-a-time loop it replaced, checked after
// every call: batches of ascending runs whose cursor restarts at a key
// not above the previous one, keys repeated inside a batch, keys below
// and above every stored key, new keys, several calls at one time,
// refused sizes, a WCU small enough that batches stop mid-way, and
// provisioning changes between calls.
TEST(TableTest, PutItemsMatchesOneAtATimeReference) {
  sim::Simulation sim;
  TableConfig cfg = TestConfig(3.0);
  cfg.provisioning_delay_sec = 2.0;
  cfg.burst_window_sec = 2.0;
  Table table(&sim, nullptr, cfg);
  OneAtATime ref(3.0, 2.0);
  Rng rng(11);
  std::vector<PutRequest> batch;
  uint64_t midway = 0, restarts = 0, refused = 0, resizes = 0;
  for (int call = 0; call < 4000; ++call) {
    if (!rng.Bernoulli(0.2)) sim.RunUntil(sim.Now() + rng.Uniform(0.0, 0.6));
    if (call % 97 == 0 && !table.provisioning_in_flight()) {
      const double wcu = static_cast<double>(rng.UniformInt(1, 8));
      ASSERT_TRUE(table.SetProvisionedThroughput(wcu, 10.0).ok());
      // Runs right after the table applies it, at the same time: the
      // table refills at the old rate, then caps banked tokens.
      ASSERT_TRUE(sim.ScheduleAfter(cfg.provisioning_delay_sec,
                                    [&ref, &sim, wcu] {
                                      ref.Refill(sim.Now());
                                      ref.wcu = wcu;
                                      ref.tokens = std::min(
                                          ref.tokens, wcu * ref.burst_sec);
                                    })
                      .ok());
      ++resizes;
    }
    batch.resize(static_cast<size_t>(rng.UniformInt(0, 30)));
    int64_t key = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (i == 0 || rng.Bernoulli(0.15)) {
        // A new run: near the stored keys, or below or above them all.
        const int64_t pick = rng.UniformInt(0, 9);
        key = pick == 0   ? rng.UniformInt(INT64_MIN, -1'000'000)
              : pick == 1 ? rng.UniformInt(1'000'000, INT64_MAX - 1000)
                          : rng.UniformInt(-300, 300);
        if (i > 0 && key <= batch[i - 1].key) ++restarts;
      } else {
        key += rng.UniformInt(0, 6);  // 0 repeats the previous key.
      }
      batch[i] = {key, rng.Uniform(-10.0, 10.0)};
    }
    const int32_t size_bytes =
        rng.Bernoulli(0.03)
            ? static_cast<int32_t>(rng.UniformInt(-5, 0))
            : static_cast<int32_t>(rng.UniformInt(1, 3000));
    Status got;
    const size_t written = table.PutItems(
        batch.size(), size_bytes, [&batch](size_t i) { return batch[i]; },
        &got);
    Status want;
    const size_t want_written = ref.Put(batch, size_bytes, sim.Now(), &want);
    ASSERT_EQ(written, want_written) << "call " << call;
    ASSERT_EQ(got.code(), want.code()) << "call " << call;
    if (written > 0 && written < batch.size()) ++midway;
    if (!got.ok() && !got.IsThrottled()) ++refused;
    ASSERT_EQ(table.total_writes(), ref.writes);
    ASSERT_EQ(table.total_throttled_writes(), ref.throttled);
    ASSERT_TRUE(SameBits(table.CurrentWriteUtilizationPct(),
                         ref.UtilizationPct(sim.Now())))
        << table.CurrentWriteUtilizationPct() << " vs "
        << ref.UtilizationPct(sim.Now());
    ASSERT_EQ(table.ItemCount(), ref.items.size());
    auto it = ref.items.begin();
    for (const auto& [k, v] : table.items()) {
      ASSERT_EQ(k, it->first);
      ASSERT_TRUE(SameBits(v, it->second)) << k;
      ++it;
    }
  }
  EXPECT_GT(midway, 200u);
  EXPECT_GT(restarts, 200u);
  EXPECT_GT(refused, 50u);
  EXPECT_GT(resizes, 20u);
  EXPECT_GT(table.total_throttled_writes(), 500u);
}

}  // namespace
}  // namespace flower::dynamodb
