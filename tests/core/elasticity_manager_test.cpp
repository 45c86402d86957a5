#include "core/elasticity_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "control/adaptive_gain.h"

namespace flower::core {
namespace {

const cloudwatch::MetricId kCpu{"Flower/Storm", "CpuUtilization", "c"};

std::unique_ptr<control::Controller> TestController(double reference = 60.0) {
  control::AdaptiveGainConfig cfg;
  cfg.reference = reference;
  cfg.initial_gain = 0.05;
  cfg.gain_min = 0.01;
  cfg.gain_max = 0.5;
  cfg.gamma = 0.01;
  cfg.limits.min = 1.0;
  cfg.limits.max = 100.0;
  return std::make_unique<control::AdaptiveGainController>(cfg);
}

LayerControlConfig TestConfig(std::function<Status(double)> actuator,
                              double initial_u = 5.0) {
  LayerControlConfig cfg;
  cfg.layer = Layer::kAnalytics;
  cfg.sensor_metric = kCpu;
  cfg.monitoring_period_sec = 60.0;
  cfg.monitoring_window_sec = 120.0;
  cfg.start_delay_sec = 60.0;
  cfg.controller = TestController();
  cfg.actuator = std::move(actuator);
  cfg.initial_u = initial_u;
  return cfg;
}

TEST(ElasticityManagerTest, AttachValidation) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  {
    LayerControlConfig cfg = TestConfig([](double) { return Status::OK(); });
    cfg.controller = nullptr;
    EXPECT_FALSE(mgr.Attach(std::move(cfg)).ok());
  }
  {
    LayerControlConfig cfg = TestConfig(nullptr);
    EXPECT_FALSE(mgr.Attach(std::move(cfg)).ok());
  }
  {
    LayerControlConfig cfg = TestConfig([](double) { return Status::OK(); });
    cfg.monitoring_period_sec = 0.0;
    EXPECT_FALSE(mgr.Attach(std::move(cfg)).ok());
  }
  ASSERT_TRUE(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).ok());
  EXPECT_TRUE(mgr.IsAttached(Layer::kAnalytics));
  EXPECT_EQ(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).code(),
      StatusCode::kAlreadyExists);
}

TEST(ElasticityManagerTest, ControlLoopSensesAndActuates) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  std::vector<double> actuations;
  ASSERT_TRUE(mgr.Attach(TestConfig([&](double u) {
    actuations.push_back(u);
    return Status::OK();
  })).ok());
  // Publish a constant overloaded CPU metric every 30 s.
  ASSERT_TRUE(sim.SchedulePeriodic(30.0, 30.0, [&] {
    EXPECT_TRUE(metrics.Put(kCpu, sim.Now(), 90.0).ok());
    return true;
  }).ok());
  sim.RunUntil(600.0);
  ASSERT_FALSE(actuations.empty());
  // Persistent +30 error with growing gain must raise the resource.
  EXPECT_GT(actuations.back(), 5.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->sensed().size(), actuations.size());
  EXPECT_EQ((*state)->sensor_misses(), 0u);
}

TEST(ElasticityManagerTest, MissingMetricCountsAsSensorMiss) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  ASSERT_TRUE(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).ok());
  sim.RunUntil(300.0);  // No data ever published.
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_GE((*state)->sensor_misses(), 4u);
  EXPECT_TRUE((*state)->sensed().empty());
}

/// u = y / 10, and an error for a negative y, so a test can write down
/// every step's expected actuation.
class EchoController final : public control::Controller {
 public:
  std::string name() const override { return "echo"; }
  double current_u() const override { return u_; }
  double reference() const override { return 60.0; }
  void set_reference(double) override {}

 private:
  Result<double> Step(SimTime, double y) override {
    if (y < 0.0) return Status::InvalidArgument("negative y");
    u_ = y / 10.0;
    RecordStep(std::nan(""), u_);
    return u_;
  }
  void ResetLaw(double initial_u) override { u_ = initial_u; }

  double u_ = 0.0;
};

using Trace = std::vector<std::pair<SimTime, double>>;

Trace Points(const TimeSeries& series) {
  Trace out;
  for (const Sample& s : series.samples()) out.emplace_back(s.time, s.value);
  return out;
}

// The traces are views over the decision log: sensed() keeps every step
// but sensor misses, actuations() every step that chose an amount. One
// scripted run covers each outcome.
TEST(ElasticityManagerTest, TracesFollowStepOutcomes) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry;
  ElasticityManager mgr(&sim, &metrics, &telemetry);
  // Steps run at 60, 120, ..., 480; absent times are sensor misses.
  const std::map<SimTime, double> script = {{60.0, 40.0},  {240.0, 50.0},
                                            {300.0, 60.0}, {360.0, 70.0},
                                            {420.0, 80.0}, {480.0, -1.0}};
  LayerControlConfig cfg = TestConfig([&sim](double) {
    return sim.Now() == 240.0 ? Status::Internal("resize failed")
                              : Status::OK();
  });
  cfg.controller = std::make_unique<EchoController>();
  cfg.sensor = [&script](SimTime now) -> Result<double> {
    auto it = script.find(now);
    if (it == script.end()) return Status::NotFound("no datapoints");
    return it->second;
  };
  // 120 s holds the last value for one step; 180 s is too old.
  cfg.resilience.sensor.on_miss = SensorMissPolicy::kHoldLastValue;
  cfg.resilience.sensor.max_hold_sec = 60.0;
  // The failure at 240 trips the breaker until 390: 300 and 360 skip.
  cfg.resilience.breaker.failure_threshold = 1;
  cfg.resilience.breaker.cooldown_sec = 150.0;
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  sim.RunUntil(500.0);

  using obs::StepOutcome;
  const std::vector<StepOutcome> outcomes = {
      StepOutcome::kActuated,    StepOutcome::kActuated,
      StepOutcome::kSensorMiss,  StepOutcome::kActuationFailed,
      StepOutcome::kBreakerOpen, StepOutcome::kBreakerOpen,
      StepOutcome::kActuated,    StepOutcome::kControllerError};
  const obs::DecisionLog& log = telemetry.decisions();
  ASSERT_EQ(log.size(), outcomes.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.at(i).outcome, outcomes[i]) << "step " << i;
  }
  EXPECT_TRUE(log.at(1).stale_sensor);

  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(Points((*state)->sensed()),
            (Trace{{60.0, 40.0}, {120.0, 40.0}, {240.0, 50.0}, {300.0, 60.0},
                   {360.0, 70.0}, {420.0, 80.0}, {480.0, -1.0}}));
  EXPECT_EQ(Points((*state)->actuations()),
            (Trace{{60.0, 4.0}, {120.0, 4.0}, {240.0, 5.0}, {300.0, 6.0},
                   {360.0, 7.0}, {420.0, 8.0}}));
}

// Once the decision ring wraps, the views hold only the retained steps.
TEST(ElasticityManagerTest, TracesCoverOnlyRetainedSteps) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry(/*decision_capacity=*/8);
  ElasticityManager mgr(&sim, &metrics, &telemetry);
  LayerControlConfig cfg = TestConfig([](double) { return Status::OK(); });
  cfg.controller = std::make_unique<EchoController>();
  cfg.sensor = [](SimTime now) -> Result<double> {
    if (now == 600.0) return Status::NotFound("no datapoints");
    return now / 10.0;
  };
  ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  sim.RunUntil(750.0);  // Twelve steps, 60 .. 720; the ring keeps eight.
  ASSERT_EQ(telemetry.decisions().total_appended(), 12u);
  ASSERT_EQ(telemetry.decisions().size(), 8u);

  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  const std::vector<SimTime> kept = {300.0, 360.0, 420.0, 480.0,
                                     540.0, 660.0, 720.0};
  EXPECT_EQ((*state)->sensed().Times(), kept);
  EXPECT_EQ((*state)->actuations().Times(), kept);
  EXPECT_EQ((*state)->actuations().Values(),
            (std::vector<double>{3.0, 3.6, 4.2, 4.8, 5.4, 6.6, 7.2}));
}

TEST(ElasticityManagerTest, ShareUpperBoundCapsActuation) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  std::vector<double> actuations;
  ASSERT_TRUE(mgr.Attach(TestConfig([&](double u) {
    actuations.push_back(u);
    return Status::OK();
  })).ok());
  ASSERT_TRUE(mgr.SetShareUpperBound(Layer::kAnalytics, 8.0).ok());
  ASSERT_TRUE(sim.SchedulePeriodic(30.0, 30.0, [&] {
    EXPECT_TRUE(metrics.Put(kCpu, sim.Now(), 100.0).ok());
    return true;
  }).ok());
  sim.RunUntil(3600.0);
  for (double u : actuations) EXPECT_LE(u, 8.0);
  EXPECT_DOUBLE_EQ(actuations.back(), 8.0);
}

TEST(ElasticityManagerTest, ShareUpperBoundValidation) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  EXPECT_EQ(mgr.SetShareUpperBound(Layer::kStorage, 5.0).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).ok());
  EXPECT_FALSE(mgr.SetShareUpperBound(Layer::kAnalytics, -1.0).ok());
  EXPECT_TRUE(mgr.SetShareUpperBound(Layer::kAnalytics, 0.0).ok());
}

TEST(ElasticityManagerTest, ActuatorFailureCountedAndLoopContinues) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  int calls = 0;
  ASSERT_TRUE(mgr.Attach(TestConfig([&](double) {
    ++calls;
    return calls <= 2 ? Status::Internal("boom") : Status::OK();
  })).ok());
  ASSERT_TRUE(sim.SchedulePeriodic(30.0, 30.0, [&] {
    EXPECT_TRUE(metrics.Put(kCpu, sim.Now(), 90.0).ok());
    return true;
  }).ok());
  sim.RunUntil(600.0);
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->actuation_failures(), 2u);
  EXPECT_GT(calls, 2);
}

TEST(ElasticityManagerTest, NamedLoopsAllowSeveralPerLayer) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  int calls_a = 0, calls_b = 0;
  {
    LayerControlConfig cfg = TestConfig([&](double) {
      ++calls_a;
      return Status::OK();
    });
    cfg.layer = Layer::kIngestion;
    cfg.name = "ingestion-impressions";
    ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  }
  {
    LayerControlConfig cfg = TestConfig([&](double) {
      ++calls_b;
      return Status::OK();
    });
    cfg.layer = Layer::kIngestion;
    cfg.name = "ingestion-clicks";
    ASSERT_TRUE(mgr.Attach(std::move(cfg)).ok());
  }
  EXPECT_TRUE(mgr.IsAttached("ingestion-impressions"));
  EXPECT_TRUE(mgr.IsAttached("ingestion-clicks"));
  EXPECT_FALSE(mgr.IsAttached(Layer::kIngestion));  // Default name unused.
  ASSERT_TRUE(sim.SchedulePeriodic(30.0, 30.0, [&] {
    EXPECT_TRUE(metrics.Put(kCpu, sim.Now(), 90.0).ok());
    return true;
  }).ok());
  sim.RunUntil(600.0);
  EXPECT_GT(calls_a, 0);
  EXPECT_GT(calls_b, 0);
  auto names = mgr.LoopNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "ingestion-clicks");
  EXPECT_EQ(names[1], "ingestion-impressions");
  // Per-loop bounds address one loop by name.
  ASSERT_TRUE(mgr.SetShareUpperBound("ingestion-clicks", 3.0).ok());
}

TEST(ElasticityManagerTest, DuplicateLoopNameRejected) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  LayerControlConfig a = TestConfig([](double) { return Status::OK(); });
  a.name = std::string("x");
  ASSERT_TRUE(mgr.Attach(std::move(a)).ok());
  LayerControlConfig b = TestConfig([](double) { return Status::OK(); });
  b.name = std::string("x");
  EXPECT_EQ(mgr.Attach(std::move(b)).code(), StatusCode::kAlreadyExists);
}

TEST(ElasticityManagerTest, GetControllerExposesAttachedController) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  EXPECT_FALSE(mgr.GetController(Layer::kAnalytics).ok());
  ASSERT_TRUE(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).ok());
  auto controller = mgr.GetController(Layer::kAnalytics);
  ASSERT_TRUE(controller.ok());
  EXPECT_EQ((*controller)->name(), "adaptive-gain");
}

ReplanConfig TestReplanConfig() {
  ReplanConfig cfg;
  cfg.request.hourly_budget_usd = 2.0;
  cfg.request.unit_price[0] = 0.015;
  cfg.request.unit_price[1] = 0.10;
  cfg.request.unit_price[2] = 0.00065;
  cfg.request.bounds[0] = {1.0, 40.0};
  cfg.request.bounds[1] = {1.0, 20.0};
  cfg.request.bounds[2] = {1.0, 400.0};
  cfg.solver.population_size = 40;
  cfg.solver.generations = 30;
  cfg.period_sec = 3600.0;
  cfg.start_delay_sec = 60.0;
  return cfg;
}

TEST(ElasticityManagerTest, ReplanningValidation) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  EXPECT_EQ(mgr.ReplanCounters().status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(mgr.replanning_enabled());
  {
    ReplanConfig cfg = TestReplanConfig();
    cfg.period_sec = 0.0;
    EXPECT_EQ(mgr.EnableReplanning(std::move(cfg)).code(),
              StatusCode::kInvalidArgument);
  }
  {
    ReplanConfig cfg = TestReplanConfig();
    cfg.start_delay_sec = -1.0;
    EXPECT_FALSE(mgr.EnableReplanning(std::move(cfg)).ok());
  }
  ASSERT_TRUE(mgr.EnableReplanning(TestReplanConfig()).ok());
  EXPECT_TRUE(mgr.replanning_enabled());
  EXPECT_EQ(mgr.EnableReplanning(TestReplanConfig()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ElasticityManagerTest, PeriodicReplanUpdatesShareBounds) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry;
  telemetry.spans().set_enabled(true);
  ElasticityManager mgr(&sim, &metrics, &telemetry);
  ASSERT_TRUE(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).ok());
  ASSERT_TRUE(mgr.EnableReplanning(TestReplanConfig()).ok());
  sim.RunUntil(2.5 * 3600.0);  // Covers the replans at 60 s, 1 h, 2 h.
  // Each re-plan leaves one kPlan span: outcome 0 on success, value =
  // the front's size.
  std::vector<SimTime> plan_times;
  const obs::SpanCollector& spans = telemetry.spans();
  for (obs::SpanId id = spans.first_retained();
       id != 0 && id < spans.end_id(); ++id) {
    const obs::SpanRecord* r = spans.Find(id);
    if (r == nullptr || r->kind != obs::SpanKind::kPlan) continue;
    EXPECT_EQ(r->outcome, 0);
    EXPECT_GT(r->value, 0.0);
    plan_times.push_back(r->start);
  }
  EXPECT_EQ(plan_times, (std::vector<SimTime>{60.0, 3660.0, 7260.0}));
  // The analytics loop's cap now follows the front's max share.
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_GT((*state)->share_upper_bound, 0.0);
  auto counters = mgr.ReplanCounters();
  ASSERT_TRUE(counters.ok());
  EXPECT_GT(counters->evaluations, 0u);
}

TEST(ElasticityManagerTest, ReplanWithCacheServesRepeatsFromCache) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  ASSERT_TRUE(
      mgr.Attach(TestConfig([](double) { return Status::OK(); })).ok());
  ReplanConfig cfg = TestReplanConfig();
  cfg.incremental.cache = true;
  ASSERT_TRUE(mgr.EnableReplanning(std::move(cfg)).ok());
  sim.RunUntil(3.5 * 3600.0);  // Four periods with an unchanged request.
  auto counters = mgr.ReplanCounters();
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->cache_misses, 1u);
  EXPECT_EQ(counters->cache_hits, 3u);
  // The cap is applied from cached results too.
  auto state = mgr.GetState(Layer::kAnalytics);
  ASSERT_TRUE(state.ok());
  EXPECT_GT((*state)->share_upper_bound, 0.0);
}

TEST(ElasticityManagerTest, ReplanRequestDriftForcesFreshSolves) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  ElasticityManager mgr(&sim, &metrics);
  ReplanConfig cfg = TestReplanConfig();
  cfg.incremental.cache = true;
  cfg.incremental.warm_start = true;
  // The budget drifts every period, so every period misses the cache
  // but warm-starts from the previous front's population.
  cfg.update_request = [](SimTime now, ResourceShareRequest* req) {
    req->hourly_budget_usd = 2.0 + now / 3600.0 * 0.1;
  };
  ASSERT_TRUE(mgr.EnableReplanning(std::move(cfg)).ok());
  sim.RunUntil(2.5 * 3600.0);
  auto counters = mgr.ReplanCounters();
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->cache_hits, 0u);
  EXPECT_EQ(counters->cache_misses, 3u);
  EXPECT_EQ(counters->warm_starts, 2u);  // All but the first solve.
}

}  // namespace
}  // namespace flower::core
