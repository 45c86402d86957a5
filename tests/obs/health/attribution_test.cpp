#include "obs/health/attribution.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace flower::obs::health {
namespace {

/// One decision of the loop named after its layer.
struct Row {
  std::string layer;
  ControlDecisionRecord record;
};

Row Rec(SimTime t, const char* layer, StepOutcome outcome,
        double raw_u = 0.0, double clamped_u = 0.0) {
  Row row{layer, {}};
  row.record.time = t;
  row.record.outcome = outcome;
  row.record.raw_u = raw_u;
  row.record.clamped_u = clamped_u;
  return row;
}

/// The rows as a decision log, one loop per distinct layer.
DecisionLog Log(const std::vector<Row>& rows) {
  DecisionLog log;
  std::map<std::string, LoopId> ids;
  for (Row row : rows) {
    auto it = ids.find(row.layer);
    if (it == ids.end()) {
      LoopId id = *log.loops().Register({row.layer, row.layer, "scripted"});
      it = ids.emplace(row.layer, id).first;
    }
    row.record.loop = it->second;
    log.Append(row.record);
  }
  return log;
}

SloStatus Breached(const char* id, const char* layer) {
  SloStatus s;
  s.id = id;
  s.layer = layer;
  s.breached = true;
  s.burn_fast = 20.0;
  s.burn_slow = 15.0;
  return s;
}

TEST(AttributionTest, SaturatedLayerOutranksHealthyOnes) {
  RootCauseAttributor attributor;
  std::vector<Row> decisions;
  // Storage asked for 200 units, got 100 — clamped hard every step.
  // Ingestion and analytics actuate exactly what they asked for.
  for (int i = 0; i < 5; ++i) {
    SimTime t = 1000.0 + 60.0 * i;
    decisions.push_back(
        Rec(t, "storage", StepOutcome::kActuated, 200.0, 100.0));
    decisions.push_back(
        Rec(t, "ingestion", StepOutcome::kActuated, 4.0, 4.0));
    decisions.push_back(
        Rec(t, "analytics", StepOutcome::kActuated, 8.0, 8.0));
  }
  HealthReport report = attributor.Attribute(
      1300.0, Breached("flow/writes", "storage"), Log(decisions), {});
  ASSERT_FALSE(report.ranking.empty());
  EXPECT_EQ(report.ranking.front().layer, "storage");
  EXPECT_GT(report.ranking.front().score, 0.0);
  ASSERT_FALSE(report.ranking.front().evidence.empty());
  EXPECT_EQ(report.ranking.front().evidence.front().kind, "saturation");
  EXPECT_NE(report.summary.find("storage"), std::string::npos);
  EXPECT_NE(report.summary.find("flow/writes"), std::string::npos);
}

TEST(AttributionTest, SymptomsAreFractionsNotRawCounts) {
  // A fast loop logging 10x the records must not win just by volume:
  // same symptom fraction → same score.
  RootCauseAttributor attributor;
  std::vector<Row> decisions;
  for (int i = 0; i < 40; ++i) {
    decisions.push_back(Rec(1000.0 + 10.0 * i, "fast",
                            i % 2 == 0 ? StepOutcome::kActuationFailed
                                       : StepOutcome::kActuated));
  }
  for (int i = 0; i < 4; ++i) {
    decisions.push_back(Rec(1000.0 + 100.0 * i, "slow",
                            i % 2 == 0 ? StepOutcome::kActuationFailed
                                       : StepOutcome::kActuated));
  }
  HealthReport report =
      attributor.Attribute(1400.0, Breached("flow/x", ""), Log(decisions), {});
  ASSERT_EQ(report.ranking.size(), 2u);
  EXPECT_NEAR(report.ranking[0].score, report.ranking[1].score, 1e-9);
}

TEST(AttributionTest, OldDecisionsFallOutsideTheWindow) {
  RootCauseAttributor attributor;
  std::vector<Row> decisions = {
      // Just before the 600 s decision window.
      Rec(399.0, "storage", StepOutcome::kActuationFailed),
      Rec(950.0, "storage", StepOutcome::kActuated, 0.0, 0.0),
  };
  HealthReport report =
      attributor.Attribute(1000.0, Breached("x", "storage"), Log(decisions),
                           {});
  // The only in-window record is symptom-free: nothing to pin on anyone.
  for (const LayerAttribution& a : report.ranking) {
    EXPECT_DOUBLE_EQ(a.score, 0.0);
  }
  EXPECT_NE(report.summary.find("no layer implicated"), std::string::npos);
}

TEST(AttributionTest, AnomalyCreditIsCapped) {
  RootCauseAttributor attributor;
  std::vector<AnomalyEvent> anomalies;
  for (int i = 0; i < 50; ++i) {
    anomalies.push_back({900.0 + i, "loop.sensed_y{loop=analytics}",
                         "analytics", AnomalyKind::kSpike, 99.0, 7.5});
  }
  HealthReport report =
      attributor.Attribute(1000.0, Breached("x", ""), DecisionLog(), anomalies);
  ASSERT_FALSE(report.ranking.empty());
  EXPECT_EQ(report.ranking.front().layer, "analytics");
  EXPECT_DOUBLE_EQ(report.ranking.front().score, 4.0);  // Capped.
  EXPECT_EQ(report.recent_anomalies.size(), 50u);
}

TEST(AttributionTest, DependencyEdgeCreditsTheDistressedResponseLayer) {
  RootCauseAttributor attributor;
  DependencyEdge edge;
  edge.predictor_layer = "ingestion";
  edge.response_layer = "storage";
  edge.predictor_metric = "IncomingRecords";
  edge.response_metric = "ConsumedWriteCapacityUnits";
  edge.slope = 0.4;
  edge.correlation = 0.95;
  edge.r_squared = 0.9;
  edge.significant = true;
  attributor.SetDependencyEdges({edge});

  std::vector<Row> decisions;
  for (int i = 0; i < 5; ++i) {
    decisions.push_back(Rec(900.0 + 20.0 * i, "storage",
                            StepOutcome::kActuated, 300.0, 150.0));
  }
  HealthReport report = attributor.Attribute(
      1000.0, Breached("flow/writes", "storage"), Log(decisions), {});
  ASSERT_FALSE(report.ranking.empty());
  const LayerAttribution& top = report.ranking.front();
  EXPECT_EQ(top.layer, "storage");
  bool has_dependency = false;
  for (const AttributionEvidence& e : top.evidence) {
    if (e.kind == "dependency") {
      has_dependency = true;
      EXPECT_NE(e.detail.find("Eq. 1"), std::string::npos);
      EXPECT_NE(e.detail.find("ingestion"), std::string::npos);
      EXPECT_NEAR(e.weight, 2.0 * 0.95, 1e-9);
    }
  }
  EXPECT_TRUE(has_dependency);

  // An insignificant edge adds nothing.
  edge.significant = false;
  attributor.SetDependencyEdges({edge});
  HealthReport without = attributor.Attribute(
      1000.0, Breached("flow/writes", "storage"), Log(decisions), {});
  EXPECT_LT(without.ranking.front().score, top.score);
}

TEST(AttributionTest, DependencyNeedsDistressOrSloLayer) {
  // The edge's response layer is healthy and not the SLO's layer:
  // no credit, though the layer still appears in the ranking.
  RootCauseAttributor attributor;
  DependencyEdge edge;
  edge.predictor_layer = "ingestion";
  edge.response_layer = "analytics";
  edge.correlation = 0.9;
  edge.significant = true;
  attributor.SetDependencyEdges({edge});
  HealthReport report =
      attributor.Attribute(1000.0, Breached("x", "storage"), DecisionLog(), {});
  for (const LayerAttribution& a : report.ranking) {
    EXPECT_DOUBLE_EQ(a.score, 0.0) << a.layer;
  }
}

TEST(AttributionTest, RankingDeterministicOnTies) {
  RootCauseAttributor attributor;
  std::vector<Row> decisions = {
      Rec(990.0, "zeta", StepOutcome::kSensorMiss),
      Rec(990.0, "alpha", StepOutcome::kSensorMiss),
  };
  HealthReport report =
      attributor.Attribute(1000.0, Breached("x", ""), Log(decisions), {});
  ASSERT_EQ(report.ranking.size(), 2u);
  EXPECT_DOUBLE_EQ(report.ranking[0].score, report.ranking[1].score);
  EXPECT_EQ(report.ranking[0].layer, "alpha");  // Name breaks the tie.
  EXPECT_EQ(report.ranking[1].layer, "zeta");
}

}  // namespace
}  // namespace flower::obs::health
