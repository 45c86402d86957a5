#include "fleet/fleet_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

namespace flower::fleet {
namespace {

/// Small fleet tuned for test speed: coarse ticks, short periods.
FleetConfig TestConfig(size_t num_threads) {
  FleetConfig c;
  c.fleet_budget_usd_per_hour = 2.0;  // Tight: forces contention.
  c.arbitration_period_sec = 300.0;
  c.num_threads = num_threads;
  c.partition.workload_emit_period_sec = 10.0;
  c.partition.storm_tick_period_sec = 10.0;
  c.partition.horizon_sec = 3600.0;
  c.arbiter_solver.population_size = 16;
  c.arbiter_solver.generations = 8;
  c.partition.flow_solver.population_size = 8;
  c.partition.flow_solver.generations = 4;
  return c;
}

std::unique_ptr<FleetManager> MakeStartedFleet(size_t tenants,
                                               size_t num_threads) {
  auto fleet = std::make_unique<FleetManager>(TestConfig(num_threads));
  for (TenantConfig& t : MakeTenantFleet(tenants, /*seed=*/7)) {
    // Short monitoring period so a 300 s test period sees steps.
    t.monitoring_period_sec = 60.0;
    EXPECT_TRUE(fleet->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(fleet->Start().ok());
  return fleet;
}

TEST(FleetManagerTest, LifecycleErrors) {
  FleetManager fleet(TestConfig(1));
  EXPECT_FALSE(fleet.Start().ok());  // No tenants.
  TenantConfig t;
  t.id = "dup";
  ASSERT_TRUE(fleet.AddTenant(t).ok());
  EXPECT_FALSE(fleet.AddTenant(t).ok());  // Duplicate id.
  t.id = "other";
  ASSERT_TRUE(fleet.AddTenant(t).ok());
  ASSERT_TRUE(fleet.Start().ok());
  EXPECT_FALSE(fleet.Start().ok());              // Double start.
  EXPECT_FALSE(fleet.AddTenant(t).ok());         // Add after start.
  EXPECT_FALSE(fleet.RunFor(-1.0).ok());         // Negative horizon.
  // A non-finite horizon or advance target never reaches its last
  // boundary.
  EXPECT_EQ(fleet.RunFor(std::nan("")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.RunFor(HUGE_VAL).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.partition(0)->AdvanceTo(std::nan("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.Now(), 0.0);
  FleetManager unstarted(TestConfig(1));
  EXPECT_FALSE(unstarted.RunFor(10.0).ok());     // Run before start.
}

TEST(FleetManagerTest, PeriodsReportAndConserveBudget) {
  std::unique_ptr<FleetManager> fleet = MakeStartedFleet(4, 1);
  ASSERT_TRUE(fleet->RunFor(600.0).ok());
  ASSERT_EQ(fleet->reports().size(), 2u);
  for (const FleetPeriodReport& report : fleet->reports()) {
    EXPECT_TRUE(report.conservation_ok);
    ASSERT_EQ(report.tenants.size(), 4u);
    double sum = 0.0;
    for (const TenantPeriodOutcome& row : report.tenants) {
      EXPECT_GE(row.grant_usd, 0.0);
      EXPECT_LE(row.grant_usd, row.demand_usd + 1e-9);
      sum += row.grant_usd;
    }
    EXPECT_LE(sum, 2.0 * (1.0 + 1e-9));
    EXPECT_NEAR(sum, report.total_granted_usd, 1e-9);
  }
  EXPECT_DOUBLE_EQ(fleet->Now(), 600.0);
  // Controllers actually stepped during the run.
  uint64_t total_steps = 0;
  for (const TenantPeriodOutcome& row : fleet->reports()[1].tenants) {
    total_steps += row.steps;
  }
  EXPECT_GT(total_steps, 0u);
}

TEST(FleetManagerTest, MergedControlIdenticalAcrossThreadCounts) {
  std::unique_ptr<FleetManager> fleet1 = MakeStartedFleet(6, 1);
  std::unique_ptr<FleetManager> fleet4 = MakeStartedFleet(6, 4);
  ASSERT_TRUE(fleet1->RunFor(600.0).ok());
  ASSERT_TRUE(fleet4->RunFor(600.0).ok());
  std::string d1 = fleet1->ControlDigest();
  std::string d4 = fleet4->ControlDigest();
  EXPECT_FALSE(d1.empty());
  EXPECT_EQ(d1, d4);  // Byte-identical merged control decisions.
}

// The digest's split rows put the id outside any fixed-size buffer:
// two 201-byte ids that share a 200-byte prefix keep every field and
// newline of their rows, and the rows stay apart.
TEST(FleetManagerTest, LongTenantIdsKeepWholeDigestRows) {
  FleetManager fleet(TestConfig(1));
  const std::string ids[2] = {std::string(200, 'a') + "x",
                              std::string(200, 'a') + "y"};
  std::vector<TenantConfig> tenants = MakeTenantFleet(2, /*seed=*/7);
  for (size_t i = 0; i < 2; ++i) {
    tenants[i].id = ids[i];
    tenants[i].monitoring_period_sec = 60.0;
    ASSERT_TRUE(fleet.AddTenant(std::move(tenants[i])).ok());
  }
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.RunFor(600.0).ok());
  // Split rows are the indented lines: two periods of two tenants.
  std::vector<std::string> rows;
  std::istringstream digest(fleet.ControlDigest());
  for (std::string line; std::getline(digest, line);) {
    if (line.rfind("  ", 0) == 0) rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 4u);
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::string& row = rows[r];
    EXPECT_EQ(row.rfind("  " + ids[r % 2] + " demand=", 0), 0u) << row;
    size_t steps = row.rfind(" steps=");
    ASSERT_NE(steps, std::string::npos) << row;
    const std::string count = row.substr(steps + 7);
    EXPECT_FALSE(count.empty()) << row;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << row;
  }
  EXPECT_NE(rows[0], rows[1]);
}

TEST(FleetManagerTest, PerFlowPlannerCountersAreTenantScoped) {
  // The managers share nothing, but their planner.* series must carry
  // the tenant label so any cross-flow aggregation stays per-tenant.
  std::unique_ptr<FleetManager> fleet = MakeStartedFleet(2, 1);
  ASSERT_TRUE(fleet->RunFor(300.0).ok());
  for (size_t i = 0; i < 2; ++i) {
    obs::MetricsSnapshot snap =
        fleet->partition(i)->telemetry().metrics().Snapshot();
    bool found = false;
    for (const obs::CounterSample& c : snap.counters) {
      if (c.name.rfind("planner.", 0) != 0) continue;
      for (const auto& [key, value] : c.labels) {
        if (key == "tenant" &&
            value == fleet->partition(i)->tenant().id) {
          found = true;
        }
      }
    }
    EXPECT_TRUE(found) << "partition " << i;
  }
}

TEST(FleetManagerTest, SpanNamespacesAreDisjointAndDeterministic) {
  FleetConfig config = TestConfig(1);
  config.partition.record_spans = true;
  FleetManager fleet(config);
  for (TenantConfig& t : MakeTenantFleet(3, /*seed=*/7)) {
    t.monitoring_period_sec = 60.0;
    ASSERT_TRUE(fleet.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.RunFor(300.0).ok());
  for (size_t i = 0; i < 3; ++i) {
    const obs::SpanCollector& spans = fleet.partition(i)->telemetry().spans();
    EXPECT_EQ(spans.id_offset(),
              static_cast<obs::SpanId>(i) * obs::SpanCollector::kIdStride);
    EXPECT_GT(spans.total_started(), 0u) << "partition " << i;
    // Every retained id lives inside this partition's namespace.
    for (obs::SpanId id = spans.first_retained();
         id != 0 && id < spans.end_id(); ++id) {
      const obs::SpanRecord* r = spans.Find(id);
      if (r == nullptr) continue;
      EXPECT_GT(r->id, spans.id_offset());
      EXPECT_LE(r->id, spans.id_offset() + obs::SpanCollector::kIdStride);
    }
  }
}

// Partitions default to record_spans = false, so a fleet run records
// no trace at all — not even the fault injector's kFault spans.
TEST(FleetManagerTest, PartitionsWithoutSpansRecordNoTrace) {
  FleetManager fleet(TestConfig(2));
  std::vector<TenantConfig> tenants = MakeTenantFleet(3, /*seed=*/7);
  TenantFault spike;
  spike.kind = "sensor-spike";
  spike.target = "analytics";
  spike.start = 60.0;
  spike.offset = 50.0;
  tenants[0].faults.push_back(spike);
  for (TenantConfig& t : tenants) {
    t.monitoring_period_sec = 60.0;
    ASSERT_TRUE(fleet.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.RunFor(600.0).ok());
  EXPECT_EQ(fleet.arbitration_spans(), nullptr);
  for (size_t i = 0; i < 3; ++i) {
    obs::Telemetry& telemetry = fleet.partition(i)->telemetry();
    EXPECT_GT(telemetry.decisions().total_appended(), 0u) << i;
    EXPECT_FALSE(telemetry.spans().enabled());
    EXPECT_EQ(telemetry.spans().total_started(), 0u) << i;
    EXPECT_EQ(telemetry.spans().size(), 0u) << i;
  }
}

// --- Hostile tenant configs come back as InvalidArgument. ------------

// Adds `tenant` to a fresh one-thread fleet and starts it; returns the
// first error.
Status AddAndStart(const TenantConfig& tenant) {
  FleetManager fleet(TestConfig(1));
  FLOWER_RETURN_NOT_OK(fleet.AddTenant(tenant));
  return fleet.Start();
}

// The id names the tenant's capture bundle files, so it must be
// non-empty and free of '/'; AddTenant rejects it before any run.
TEST(FleetManagerTest, AddTenantRejectsEmptyId) {
  TenantConfig t;
  t.id = "";
  EXPECT_EQ(AddAndStart(t).code(), StatusCode::kInvalidArgument);
}

TEST(FleetManagerTest, AddTenantRejectsSlashInId) {
  TenantConfig t;
  t.id = "team/a";
  EXPECT_EQ(AddAndStart(t).code(), StatusCode::kInvalidArgument);
}

// MmppArrival pre-samples holds with mean period_sec up to the horizon,
// which a zero or negative period never reaches.
TEST(FleetManagerTest, StartRejectsNonPositivePeriod) {
  for (ArrivalPattern pattern : {ArrivalPattern::kMmpp,
                                 ArrivalPattern::kDiurnal}) {
    for (double period : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
      TenantConfig t;
      t.pattern = pattern;
      t.amplitude_per_sec = 5.0;
      t.period_sec = period;
      EXPECT_EQ(AddAndStart(t).code(), StatusCode::kInvalidArgument)
          << ArrivalPatternToString(pattern) << " period " << period;
    }
  }
}

// Every hostile tenant comes back as InvalidArgument from AddTenant or
// Start before any partition is built — none fails mid-run, hangs, or
// runs silently wrong.
TEST(FleetManagerTest, HostileTenantsRejectedBeforeAnyPartitionIsBuilt) {
  const double nan = std::nan("");
  struct Case {
    const char* what;
    std::function<void(TenantConfig*)> mutate;
  };
  const std::vector<Case> cases = {
      {"budget_weight -1", [](TenantConfig* t) { t->budget_weight = -1.0; }},
      {"budget_weight NaN", [&](TenantConfig* t) { t->budget_weight = nan; }},
      {"initial_budget_usd NaN",
       [&](TenantConfig* t) { t->initial_budget_usd = nan; }},
      {"initial_budget_usd -5",
       [](TenantConfig* t) { t->initial_budget_usd = -5.0; }},
      {"initial_budget_usd inf",
       [](TenantConfig* t) { t->initial_budget_usd = HUGE_VAL; }},
      {"phase_sec NaN", [&](TenantConfig* t) { t->phase_sec = nan; }},
      {"initial_wcu NaN", [&](TenantConfig* t) { t->initial_wcu = nan; }},
      {"initial_wcu -1", [](TenantConfig* t) { t->initial_wcu = -1.0; }},
      {"initial_wcu above max_wcu",
       [](TenantConfig* t) { t->initial_wcu = t->max_wcu + 1.0; }},
      {"max_wcu NaN", [&](TenantConfig* t) { t->max_wcu = nan; }},
      {"max_wcu below the storage floor", [](TenantConfig* t) {
         t->initial_wcu = 4.0;
         t->max_wcu = 4.0;
       }},
      {"initial_shards 0", [](TenantConfig* t) { t->initial_shards = 0; }},
      {"initial_shards above max_shards",
       [](TenantConfig* t) { t->initial_shards = t->max_shards + 1; }},
      {"initial_workers -3", [](TenantConfig* t) { t->initial_workers = -3; }},
      {"initial_workers 0", [](TenantConfig* t) { t->initial_workers = 0; }},
      {"reference NaN",
       [&](TenantConfig* t) { t->reference_utilization_pct = nan; }},
      {"reference 100",
       [](TenantConfig* t) { t->reference_utilization_pct = 100.0; }},
      {"monitoring_period_sec 1e-9",
       [](TenantConfig* t) { t->monitoring_period_sec = 1e-9; }},
      {"arbitration_period_sec 1e-3",
       [](TenantConfig* t) { t->arbitration_period_sec = 1e-3; }},
      {"arbitration_period_sec at the re-plan offset",
       [](TenantConfig* t) { t->arbitration_period_sec = 1.0; }},
  };
  for (const Case& c : cases) {
    std::vector<TenantConfig> tenants = MakeTenantFleet(2, /*seed=*/7);
    c.mutate(&tenants[0]);
    FleetManager fleet(TestConfig(1));
    Status st = fleet.AddTenant(tenants[1]);
    ASSERT_TRUE(st.ok()) << c.what;
    st = fleet.AddTenant(tenants[0]);
    if (st.ok()) st = fleet.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_EQ(fleet.num_tenants(), 0u) << c.what;
  }
}

TEST(FleetManagerTest, HostileFleetSettingsRejectedBeforeAnyPartitionIsBuilt) {
  const double nan = std::nan("");
  struct Case {
    const char* what;
    std::function<void(FleetConfig*)> mutate;
  };
  const std::vector<Case> cases = {
      {"budget NaN",
       [&](FleetConfig* c) { c->fleet_budget_usd_per_hour = nan; }},
      {"budget -1",
       [](FleetConfig* c) { c->fleet_budget_usd_per_hour = -1.0; }},
      {"budget inf",
       [](FleetConfig* c) { c->fleet_budget_usd_per_hour = HUGE_VAL; }},
      {"starvation floor -0.1",
       [](FleetConfig* c) { c->starvation_floor_frac = -0.1; }},
      {"starvation floor 1.5",
       [](FleetConfig* c) { c->starvation_floor_frac = 1.5; }},
      {"starvation floor NaN",
       [&](FleetConfig* c) { c->starvation_floor_frac = nan; }},
      {"fleet period 1e-3",
       [](FleetConfig* c) { c->arbitration_period_sec = 1e-3; }},
      {"fleet period NaN",
       [&](FleetConfig* c) { c->arbitration_period_sec = nan; }},
      {"num_threads above the bound",
       [](FleetConfig* c) { c->num_threads = exec::kMaxThreads + 1; }},
      {"num_threads 100000", [](FleetConfig* c) { c->num_threads = 100000; }},
  };
  for (const Case& c : cases) {
    FleetConfig config = TestConfig(1);
    c.mutate(&config);
    FleetManager fleet(config);
    Status st = Status::OK();
    for (TenantConfig& t : MakeTenantFleet(2, /*seed=*/7)) {
      st = fleet.AddTenant(std::move(t));
      if (!st.ok()) break;
    }
    if (st.ok()) st = fleet.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_EQ(fleet.num_tenants(), 0u) << c.what;
  }
}

TEST(FleetManagerTest, StartRejectsNonFiniteOrNegativeRates) {
  // 1e300 is finite, but no stream can be offered it: generating one
  // tick of it would never finish.
  for (double rate : {std::nan(""), HUGE_VAL, -1.0, 1e300}) {
    TenantConfig base_rate;
    base_rate.base_rate_per_sec = rate;
    EXPECT_EQ(AddAndStart(base_rate).code(), StatusCode::kInvalidArgument)
        << "base rate " << rate;
    TenantConfig amplitude;
    amplitude.pattern = ArrivalPattern::kMmpp;
    amplitude.amplitude_per_sec = rate;
    EXPECT_EQ(AddAndStart(amplitude).code(), StatusCode::kInvalidArgument)
        << "amplitude " << rate;
  }
}

}  // namespace
}  // namespace flower::fleet
