// Integration test of the causal control-span plane over the Fig. 6
// trace (the ISSUE 7 acceptance criterion): every scaling decision in
// the decision log must carry a span id that SpanIndex::EffectOf
// resolves to at least one sensed-metric parent and at least one
// actuation child — and the chain's payloads must agree with the
// decision record they annotate.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/flow_builder.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/fault_injector.h"
#include "workload/arrival.h"

namespace flower {
namespace {

// The Fig. 6 workload: diurnal load with a flash crowd at hour 2 (same
// shape as bench/fig6_elasticity_trace.cpp).
std::shared_ptr<workload::ArrivalProcess> Fig6Load() {
  auto arrival = std::make_shared<workload::CompositeArrival>();
  arrival->Add(std::make_shared<workload::DiurnalArrival>(900.0, 700.0,
                                                          4.0 * kHour));
  arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
      0.0, 1800.0, 2.0 * kHour, 40.0 * kMinute, 5.0 * kMinute));
  return arrival;
}

struct RunOutput {
  obs::Telemetry telemetry;
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  std::unique_ptr<sim::FaultInjector> chaos;
  core::ManagedFlow managed;
};

void RunFig6(RunOutput* out, double hours, bool with_faults,
             bool with_replanning) {
  out->telemetry.spans().set_enabled(true);
  core::FlowBuilder builder;
  builder.WithSeed(7)
      .WithTelemetry(&out->telemetry)
      .WithWorkload(Fig6Load());
  if (with_faults) {
    out->chaos = std::make_unique<sim::FaultInjector>(&out->sim, 7);
    // Actuator outage squarely inside the flash crowd so the retry /
    // failure span paths get real traffic.
    out->chaos->FailActuator("analytics", 2.0 * kHour, 2.5 * kHour,
                             /*probability=*/1.0);
    builder.WithFaultInjector(out->chaos.get());
  }
  auto managed = builder.Build(&out->sim, &out->metrics);
  ASSERT_TRUE(managed.ok()) << managed.status();
  out->managed = std::move(*managed);
  if (with_replanning) {
    core::ReplanConfig replan;
    replan.solver.population_size = 24;
    replan.solver.generations = 8;
    replan.solver.seed = 11;
    replan.solver.on_generation =
        obs::MakeNsga2Observer(&out->telemetry, "planner", /*anchor=*/0.0);
    replan.period_sec = 1.0 * kHour;
    replan.start_delay_sec = 10.0 * kMinute;
    ASSERT_TRUE(out->managed.manager->EnableReplanning(replan).ok());
  }
  out->sim.RunUntil(hours * kHour);
}

TEST(SpanChainIntegrationTest, EveryDecisionResolvesToSenseAndActuation) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(
      RunFig6(&run, 4.0, /*with_faults=*/false, /*with_replanning=*/false));

  obs::SpanIndex index(run.telemetry.spans());
  const obs::DecisionLog& decisions = run.telemetry.decisions();
  ASSERT_GE(decisions.size(), 100u);

  size_t checked = 0;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const obs::ControlDecisionRecord& d = decisions.at(i);
    const std::string& loop = decisions.loop(d).name;
    ASSERT_NE(d.span_id, 0u) << loop << " t=" << d.time;
    if (d.outcome != obs::StepOutcome::kActuated) continue;
    auto chain = index.EffectOf(d.span_id);
    ASSERT_TRUE(chain.ok()) << chain.status() << " t=" << d.time;
    ASSERT_NE(chain->decision, nullptr);
    EXPECT_EQ(chain->decision->id, d.span_id);
    EXPECT_EQ(chain->decision->label, loop);
    EXPECT_FALSE(chain->decision->open);
    // At least one sensed-metric parent carrying the y_k the law saw.
    ASSERT_GE(chain->senses.size(), 1u) << loop << " t=" << d.time;
    if (!d.stale_sensor) {
      EXPECT_NEAR(chain->senses[0]->value, d.sensed_y, 1e-9);
    }
    // At least one actuation child, and a successful one at that.
    ASSERT_GE(chain->actuations.size(), 1u) << loop << " t=" << d.time;
    bool actuated = false;
    for (const obs::SpanRecord* a : chain->actuations) {
      if (a->outcome == static_cast<uint8_t>(obs::StepOutcome::kActuated)) {
        actuated = true;
        EXPECT_NEAR(a->value, d.clamped_u, 1e-9);
      }
    }
    EXPECT_TRUE(actuated) << loop << " t=" << d.time;
    ++checked;
  }
  EXPECT_GE(checked, 100u);

  // Effects close at the next fresh sense: in a fault-free run every
  // actuated decision except each loop's last must have settled.
  size_t with_effect = 0;
  size_t actuated_total = 0;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const obs::ControlDecisionRecord& d = decisions.at(i);
    if (d.outcome != obs::StepOutcome::kActuated) continue;
    ++actuated_total;
    auto chain = index.EffectOf(d.span_id);
    ASSERT_TRUE(chain.ok());
    if (!chain->effects.empty()) {
      ++with_effect;
      // The settling interval starts at the actuation and is judged at
      // the next monitoring instant, so it spans forward in sim time.
      EXPECT_GT(chain->effects[0]->end, chain->effects[0]->start);
    }
  }
  EXPECT_GE(with_effect + 3u, actuated_total);  // One open tail per loop.
  EXPECT_GT(with_effect, 0u);
}

TEST(SpanChainIntegrationTest, ActuatorOutageShowsFailedAndRetriedSpans) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(
      RunFig6(&run, 3.0, /*with_faults=*/true, /*with_replanning=*/false));

  obs::SpanIndex index(run.telemetry.spans());
  size_t failed_steps = 0;
  const obs::DecisionLog& log = run.telemetry.decisions();
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::ControlDecisionRecord& d = log.at(i);
    if (log.loop(d).name != "analytics") continue;
    if (d.outcome != obs::StepOutcome::kActuationFailed) continue;
    ++failed_steps;
    ASSERT_NE(d.span_id, 0u);
    auto chain = index.EffectOf(d.span_id);
    ASSERT_TRUE(chain.ok()) << chain.status();
    // The failed attempt is recorded as an actuation child with the
    // failure outcome; no effect can hang off a failed attempt.
    ASSERT_GE(chain->actuations.size(), 1u);
    EXPECT_EQ(chain->actuations[0]->outcome,
              static_cast<uint8_t>(obs::StepOutcome::kActuationFailed));
    for (const obs::SpanRecord* e : chain->effects) {
      const obs::SpanRecord* parent =
          run.telemetry.spans().Find(e->parent);
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->outcome,
                static_cast<uint8_t>(obs::StepOutcome::kActuated));
    }
    // Retry attempts chain via follows-from off the failed attempt.
    if (chain->actuations.size() > 1) {
      EXPECT_FALSE(index.FollowersOf(chain->actuations[0]->id).empty());
    }
  }
  EXPECT_GT(failed_steps, 0u)
      << "outage window produced no failed decisions";
}

TEST(SpanChainIntegrationTest, ReplanningLinksDecisionsToPlans) {
  RunOutput run;
  ASSERT_NO_FATAL_FAILURE(
      RunFig6(&run, 3.0, /*with_faults=*/false, /*with_replanning=*/true));

  const obs::SpanCollector& spans = run.telemetry.spans();
  obs::SpanIndex index(spans);

  // The run covers at least two replanning periods.
  std::vector<const obs::SpanRecord*> plan_spans;
  size_t generation_spans = 0;
  for (obs::SpanId id = spans.first_retained();
       id < spans.first_retained() + spans.size(); ++id) {
    const obs::SpanRecord* r = spans.Find(id);
    ASSERT_NE(r, nullptr);
    if (r->kind == obs::SpanKind::kPlan) plan_spans.push_back(r);
    if (r->kind == obs::SpanKind::kGeneration) ++generation_spans;
  }
  ASSERT_GE(plan_spans.size(), 2u);
  // NSGA-II generations are children of the plan span they ran under.
  EXPECT_GE(generation_spans, plan_spans.size());
  size_t parented = 0;
  for (const obs::SpanRecord* p : plan_spans) {
    parented += index.ChildrenOf(p->id).size();
  }
  EXPECT_EQ(parented, generation_spans);
  // Successive plans chain via follows-from.
  EXPECT_FALSE(index.FollowersOf(plan_spans[0]->id).empty());

  // After the first re-plan lands, decisions follow-from the plan whose
  // bounds they executed under.
  double first_plan_done = plan_spans[0]->end;
  size_t linked = 0;
  const obs::DecisionLog& log = run.telemetry.decisions();
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::ControlDecisionRecord& d = log.at(i);
    if (d.outcome != obs::StepOutcome::kActuated) continue;
    if (d.time <= first_plan_done) continue;
    auto chain = index.EffectOf(d.span_id);
    ASSERT_TRUE(chain.ok());
    ASSERT_GE(chain->plans.size(), 1u)
        << log.loop(d).name << " t=" << d.time;
    EXPECT_EQ(chain->plans[0]->kind, obs::SpanKind::kPlan);
    EXPECT_LE(chain->plans[0]->start, d.time);
    ++linked;
  }
  EXPECT_GT(linked, 0u);
}

}  // namespace
}  // namespace flower
