#include "storm/topology.h"

#include <gtest/gtest.h>

namespace flower::storm {
namespace {

SpoutFn EmptySpout() {
  return [](size_t, std::vector<Tuple>*) {};
}

BoltSpec Spec(const std::string& name, double selectivity = 1.0) {
  BoltSpec spec;
  spec.name = name;
  spec.cpu_cost_per_tuple = 100.0;
  spec.logic = std::make_shared<StatelessBolt>(selectivity);
  return spec;
}

TEST(TopologyTest, SetSpoutOnce) {
  Topology topo("t");
  EXPECT_FALSE(topo.HasSpout());
  ASSERT_TRUE(topo.SetSpout("spout", EmptySpout()).ok());
  EXPECT_TRUE(topo.HasSpout());
  EXPECT_EQ(topo.SetSpout("again", EmptySpout()).code(),
            StatusCode::kAlreadyExists);
}

TEST(TopologyTest, NullSpoutRejected) {
  Topology topo("t");
  EXPECT_EQ(topo.SetSpout("s", nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(TopologyTest, AddBoltChain) {
  Topology topo("t");
  ASSERT_TRUE(topo.SetSpout("spout", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddBolt(Spec("a")).ok());
  ASSERT_TRUE(topo.AddBolt(Spec("b"), "a").ok());
  ASSERT_TRUE(topo.AddBolt(Spec("c"), "b").ok());
  EXPECT_EQ(topo.bolt_count(), 3u);
}

TEST(TopologyTest, DuplicateAndUnknownNamesRejected) {
  Topology topo("t");
  ASSERT_TRUE(topo.SetSpout("spout", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddBolt(Spec("a")).ok());
  EXPECT_EQ(topo.AddBolt(Spec("a")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(topo.AddBolt(Spec("spout")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(topo.AddBolt(Spec("b"), "nope").code(), StatusCode::kNotFound);
}

TEST(TopologyTest, BoltWithoutLogicRejected) {
  Topology topo("t");
  BoltSpec spec;
  spec.name = "broken";
  EXPECT_EQ(topo.AddBolt(std::move(spec)).code(),
            StatusCode::kInvalidArgument);
}

// Overrides neither Execute nor ExecuteBatch.
class NoLogicBolt final : public BoltLogic {};

TEST(TopologyDeathTest, BoltOverridingNeitherFormAborts) {
  NoLogicBolt bolt;
  const Tuple in;
  VecDeque<Tuple> out;
  Status st;
  EXPECT_DEATH(bolt.ExecuteBatch(&in, 1, 0.0, &out, &st),
               "must override Execute or ExecuteBatch");
  EXPECT_DEATH(bolt.Execute(in, 0.0, [](Tuple) {}),
               "must override Execute or ExecuteBatch");
}

TEST(TopologyTest, NegativeCostRejected) {
  Topology topo("t");
  BoltSpec spec = Spec("x");
  spec.cpu_cost_per_tuple = -1.0;
  EXPECT_FALSE(topo.AddBolt(std::move(spec)).ok());
}

TEST(TopologyTest, QueueLengthsInitiallyZero) {
  Topology topo("t");
  ASSERT_TRUE(topo.SetSpout("spout", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddBolt(Spec("a")).ok());
  EXPECT_EQ(topo.PendingTuples(), 0u);
  auto lens = topo.QueueLengths();
  ASSERT_EQ(lens.size(), 1u);
  EXPECT_EQ(lens[0].first, "a");
  EXPECT_EQ(lens[0].second, 0u);
}

TEST(TopologyTest, MultipleSpoutsSupported) {
  Topology topo("t");
  ASSERT_TRUE(topo.AddSpout("clicks", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddSpout("impressions", EmptySpout()).ok());
  EXPECT_EQ(topo.spout_count(), 2u);
  // Duplicate spout name rejected.
  EXPECT_EQ(topo.AddSpout("clicks", EmptySpout()).code(),
            StatusCode::kAlreadyExists);
  // SetSpout refuses once any spout exists.
  EXPECT_EQ(topo.SetSpout("another", EmptySpout()).code(),
            StatusCode::kAlreadyExists);
}

TEST(TopologyTest, FanInBoltWithMultipleParents) {
  Topology topo("t");
  ASSERT_TRUE(topo.AddSpout("clicks", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddSpout("impressions", EmptySpout()).ok());
  BoltSpec join = Spec("join");
  ASSERT_TRUE(topo.AddBolt(std::move(join),
                           std::vector<std::string>{"clicks",
                                                    "impressions"}).ok());
  EXPECT_EQ(topo.bolt_count(), 1u);
}

TEST(TopologyTest, EmptyParentRequiresExactlyOneSpout) {
  Topology topo("t");
  ASSERT_TRUE(topo.AddSpout("a", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddSpout("b", EmptySpout()).ok());
  EXPECT_EQ(topo.AddBolt(Spec("x")).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(topo.AddBolt(Spec("y"), "a").ok());
}

TEST(TopologyTest, BoltNeedsAtLeastOneParent) {
  Topology topo("t");
  ASSERT_TRUE(topo.AddSpout("a", EmptySpout()).ok());
  EXPECT_EQ(topo.AddBolt(Spec("x"), std::vector<std::string>{}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TopologyTest, MixedSpoutAndBoltParents) {
  Topology topo("t");
  ASSERT_TRUE(topo.AddSpout("raw", EmptySpout()).ok());
  ASSERT_TRUE(topo.AddBolt(Spec("enrich"), "raw").ok());
  // A bolt can consume both the raw stream and the enriched one.
  ASSERT_TRUE(topo.AddBolt(Spec("audit"),
                           std::vector<std::string>{"raw", "enrich"}).ok());
  EXPECT_EQ(topo.bolt_count(), 2u);
}

TEST(TopologyTest, NegativeSpoutCostRejected) {
  Topology topo("t");
  EXPECT_FALSE(topo.AddSpout("s", EmptySpout(), -5.0).ok());
}

TEST(StatelessBoltTest, UnitSelectivityEmitsEveryTuple) {
  StatelessBolt bolt(1.0);
  int emitted = 0;
  Tuple t;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bolt.Execute(t, 0.0, [&](Tuple) { ++emitted; }).ok());
  }
  EXPECT_EQ(emitted, 10);
}

TEST(StatelessBoltTest, FractionalSelectivityAccumulates) {
  StatelessBolt bolt(0.25);
  int emitted = 0;
  Tuple t;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(bolt.Execute(t, 0.0, [&](Tuple) { ++emitted; }).ok());
  }
  EXPECT_EQ(emitted, 25);
}

TEST(StatelessBoltTest, AmplifyingSelectivity) {
  StatelessBolt bolt(3.0);
  int emitted = 0;
  Tuple t;
  ASSERT_TRUE(bolt.Execute(t, 0.0, [&](Tuple) { ++emitted; }).ok());
  EXPECT_EQ(emitted, 3);
}

}  // namespace
}  // namespace flower::storm
