#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace flower::obs {
namespace {

ControlDecisionRecord Rec(SimTime t) {
  ControlDecisionRecord r;
  r.time = t;
  return r;
}

/// The retained records, read through at(), oldest first.
std::vector<ControlDecisionRecord> Snapshot(const DecisionLog& log) {
  std::vector<ControlDecisionRecord> out;
  for (size_t i = 0; i < log.size(); ++i) out.push_back(log.at(i));
  return out;
}

TEST(DecisionLogTest, AppendBelowCapacity) {
  DecisionLog log(4);
  log.Append(Rec(1.0));
  log.Append(Rec(2.0));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total_appended(), 2u);
  auto snap = Snapshot(log);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].time, 1.0);
  EXPECT_DOUBLE_EQ(snap[1].time, 2.0);
}

TEST(DecisionLogTest, OverwritesOldestWhenFull) {
  DecisionLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.Append(Rec(static_cast<double>(i)));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_appended(), 5u);
  auto snap = Snapshot(log);
  ASSERT_EQ(snap.size(), 3u);
  // Records 0 and 1 were evicted; 2, 3, 4 remain oldest-first.
  EXPECT_DOUBLE_EQ(snap[0].time, 2.0);
  EXPECT_DOUBLE_EQ(snap[1].time, 3.0);
  EXPECT_DOUBLE_EQ(snap[2].time, 4.0);
}

TEST(DecisionLogTest, SnapshotOrderStableAcrossWraps) {
  DecisionLog log(4);
  for (int i = 0; i < 11; ++i) {
    log.Append(Rec(static_cast<double>(i)));
  }
  auto snap = Snapshot(log);
  ASSERT_EQ(snap.size(), 4u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].time, snap[i].time);
  }
  EXPECT_DOUBLE_EQ(snap.back().time, 10.0);
}

TEST(DecisionLogTest, ExactCapacityBoundary) {
  // Filling to exactly capacity is the last append before wraparound
  // kicks in: nothing evicted yet, order still insertion order.
  DecisionLog log(4);
  for (int i = 0; i < 4; ++i) {
    log.Append(Rec(static_cast<double>(i)));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_appended(), 4u);
  auto snap = Snapshot(log);
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_DOUBLE_EQ(snap.front().time, 0.0);
  EXPECT_DOUBLE_EQ(snap.back().time, 3.0);

  // One more append evicts exactly the oldest record.
  log.Append(Rec(4.0));
  snap = Snapshot(log);
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_DOUBLE_EQ(snap.front().time, 1.0);
  EXPECT_DOUBLE_EQ(snap.back().time, 4.0);
  EXPECT_EQ(log.total_appended(), 5u);
}

TEST(DecisionLogTest, CapacityOneAlwaysKeepsNewest) {
  DecisionLog log(1);
  for (int i = 0; i < 7; ++i) {
    log.Append(Rec(static_cast<double>(i)));
    auto snap = Snapshot(log);
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_DOUBLE_EQ(snap[0].time, static_cast<double>(i));
  }
  EXPECT_EQ(log.total_appended(), 7u);
}

TEST(DecisionLogTest, ManyFullWrapsStayOldestFirst) {
  // Drive the ring through dozens of complete revolutions, checking the
  // snapshot contract (oldest-first, strictly increasing, newest == last
  // appended) at every position of the write cursor.
  DecisionLog log(5);
  for (int i = 0; i < 57; ++i) {
    log.Append(Rec(static_cast<double>(i)));
    if (i < 10) continue;
    auto snap = Snapshot(log);
    ASSERT_EQ(snap.size(), 5u);
    for (size_t j = 1; j < snap.size(); ++j) {
      EXPECT_DOUBLE_EQ(snap[j].time, snap[j - 1].time + 1.0);
    }
    EXPECT_DOUBLE_EQ(snap.back().time, static_cast<double>(i));
  }
  EXPECT_EQ(log.total_appended(), 57u);
  EXPECT_EQ(log.size(), 5u);
}

TEST(LoopTableTest, RegistersLoopsInOrder) {
  DecisionLog log(4);
  auto a = log.loops().Register({"ingestion", "ingestion", "adaptive-gain"});
  auto b = log.loops().Register({"analytics", "analytics", "rule-based"});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  ControlDecisionRecord r = Rec(1.0);
  r.loop = *b;
  EXPECT_EQ(log.loop(r).name, "analytics");
  EXPECT_EQ(log.loop(r).law, "rule-based");
}

TEST(LoopTableTest, RejectsRegistrationPastTheLastId) {
  LoopTable loops;
  for (size_t i = 0; i <= std::numeric_limits<LoopId>::max(); ++i) {
    ASSERT_TRUE(loops.Register({"l", "analytics", "adaptive-gain"}).ok());
  }
  auto overflow = loops.Register({"l", "analytics", "adaptive-gain"});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

TEST(DigestLineTest, FormatsTheCanonicalFields) {
  ControlDecisionRecord r = Rec(120.0);
  r.sensed_y = 61.25;
  r.raw_u = 3.5;
  r.clamped_u = 4.0;
  r.outcome = StepOutcome::kBreakerOpen;
  char line[kDigestLineCapacity];
  size_t len = FormatDigestLine(r, "analytics", line);
  EXPECT_EQ(std::string(line, len),
            "t=120.000 loop=analytics y=61.250000 raw_u=3.500000 "
            "u=4.000000 out=breaker-open");
}

TEST(DecisionLogTest, OutcomeStrings) {
  EXPECT_STREQ(StepOutcomeToString(StepOutcome::kActuated), "actuated");
  EXPECT_STREQ(StepOutcomeToString(StepOutcome::kSensorMiss), "sensor-miss");
  EXPECT_STREQ(StepOutcomeToString(StepOutcome::kControllerError),
               "controller-error");
  EXPECT_STREQ(StepOutcomeToString(StepOutcome::kBreakerOpen),
               "breaker-open");
  EXPECT_STREQ(StepOutcomeToString(StepOutcome::kActuationFailed),
               "actuation-failed");
}

}  // namespace
}  // namespace flower::obs
