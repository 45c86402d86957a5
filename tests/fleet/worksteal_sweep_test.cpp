#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_manager.h"
#include "obs/span.h"

namespace flower::fleet {
namespace {

/// Small fleet tuned for test speed: coarse ticks, short periods.
FleetConfig SweepTestConfig(size_t num_threads) {
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

std::unique_ptr<FleetManager> MakeHomogeneousFleet(size_t tenants,
                                                   size_t num_threads) {
  auto fleet = std::make_unique<FleetManager>(SweepTestConfig(num_threads));
  for (TenantConfig& t : MakeTenantFleet(tenants, /*seed=*/7)) {
    t.monitoring_period_sec = 60.0;
    EXPECT_TRUE(fleet->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(fleet->Start().ok());
  return fleet;
}

/// Three tenants on co-prime-ish horizons (30/45/60 s): boundaries
/// coincide only at common multiples (90, 120, 180, ...), which is
/// exactly the partial-overlap regime the event engine must order
/// deterministically.
std::unique_ptr<FleetManager> MakeHeterogeneousFleet(size_t num_threads) {
  auto fleet = std::make_unique<FleetManager>(SweepTestConfig(num_threads));
  const double periods[3] = {30.0, 45.0, 60.0};
  std::vector<TenantConfig> tenants = MakeTenantFleet(3, /*seed=*/11);
  for (size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].monitoring_period_sec = 30.0;
    tenants[i].arbitration_period_sec = periods[i];
    EXPECT_TRUE(fleet->AddTenant(std::move(tenants[i])).ok());
  }
  EXPECT_TRUE(fleet->Start().ok());
  return fleet;
}

/// Three tenants whose sensors read through metric-delay faults longer
/// than their 60 s loop window: a lag of 150 s on ingestion for part of
/// the run, 240 s on every layer from 600 s on, and a transient 90 s
/// lag on storage. Each read then reaches back window + delay seconds.
std::unique_ptr<FleetManager> MakeMetricDelayFleet(size_t num_threads) {
  auto fleet = std::make_unique<FleetManager>(SweepTestConfig(num_threads));
  std::vector<TenantConfig> tenants = MakeTenantFleet(3, /*seed=*/13);
  auto delay = [](const char* target, double start, double end,
                  double delay_sec, double probability) {
    TenantFault f;
    f.kind = "metric-delay";
    f.target = target;
    f.start = start;
    f.end = end;
    f.delay_sec = delay_sec;
    f.probability = probability;
    return f;
  };
  const double kForever = std::numeric_limits<double>::infinity();
  tenants[0].faults = {delay("ingestion", 300.0, 1200.0, 150.0, 1.0)};
  tenants[1].faults = {delay("", 600.0, kForever, 240.0, 1.0)};
  tenants[2].faults = {delay("storage", 0.0, kForever, 90.0, 0.5),
                       delay("analytics", 900.0, 1500.0, 180.0, 1.0)};
  for (TenantConfig& t : tenants) {
    t.monitoring_period_sec = 60.0;
    EXPECT_TRUE(fleet->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(fleet->Start().ok());
  return fleet;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Compares `digest` with testdata/<name>. On a mismatch it prints the
// first differing line and writes the fresh digest next to a `cp`
// command that regenerates the golden.
void ExpectDigestMatchesGolden(const std::string& digest,
                               const std::string& name, size_t threads) {
  const std::string golden_path =
      std::string(FLOWER_FLEET_TESTDATA) + "/" + name;
  const std::string golden = ReadFile(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing " << golden_path;
  if (digest == golden) return;
  std::istringstream got(digest);
  std::istringstream want(golden);
  std::string got_line;
  std::string want_line;
  int line = 1;
  for (;; ++line) {
    bool more_got = static_cast<bool>(std::getline(got, got_line));
    bool more_want = static_cast<bool>(std::getline(want, want_line));
    if (!more_got || !more_want || got_line != want_line) break;
  }
  const std::string fresh = ::testing::TempDir() + name;
  std::ofstream(fresh, std::ios::binary) << digest;
  ADD_FAILURE() << threads << " thread(s): digest differs from the golden "
                << "at line " << line << "\n  got:  " << got_line
                << "\n  want: " << want_line
                << "\n  regenerate: cp " << fresh << " " << golden_path;
}

// testdata/homogeneous_5x900s.digest holds this fleet's ControlDigest()
// as the barrier sweep that preceded the work-stealing one produced it;
// the work-stealing sweep matches it byte for byte at 1, 4 and 16
// threads.
// It pins the homogeneous byte contract: same windows, same grants,
// same partition decision logs. A change that moves any decision on
// purpose regenerates it with the command printed on failure.
TEST(WorkStealSweepTest, HomogeneousDigestMatchesGolden) {
  for (size_t threads : {1, 4, 16}) {
    std::unique_ptr<FleetManager> fleet = MakeHomogeneousFleet(5, threads);
    ASSERT_TRUE(fleet->RunFor(900.0).ok());
    ASSERT_EQ(fleet->reports().size(), 3u);
    ExpectDigestMatchesGolden(fleet->ControlDigest(),
                              "homogeneous_5x900s.digest", threads);
  }
}

// testdata/heterogeneous_3x360s.digest holds the 30/45/60 s fleet's
// ControlDigest() after two RunFor calls (150 s, then 210 s). It pins
// what the homogeneous golden cannot: windows of different lengths
// interleaved in one digest, and reports accumulated over more than
// one call. Regenerated like the homogeneous golden.
TEST(WorkStealSweepTest, HeterogeneousDigestMatchesGolden) {
  for (size_t threads : {1, 4, 16}) {
    std::unique_ptr<FleetManager> fleet = MakeHeterogeneousFleet(threads);
    ASSERT_TRUE(fleet->RunFor(150.0).ok());
    ASSERT_TRUE(fleet->RunFor(210.0).ok());
    ExpectDigestMatchesGolden(fleet->ControlDigest(),
                              "heterogeneous_3x360s.digest", threads);
  }
}

// testdata/metric_delay_3x1800s.digest holds the delayed-sensing
// fleet's ControlDigest() after 1800 s, captured while every metric
// store still kept full history. Partitions now keep only the history
// their readers reach (window + delay), so the golden pins that the
// bound never cuts into a delayed read. Regenerated like the
// homogeneous golden.
TEST(WorkStealSweepTest, MetricDelayDigestMatchesGolden) {
  for (size_t threads : {1, 4}) {
    std::unique_ptr<FleetManager> fleet = MakeMetricDelayFleet(threads);
    ASSERT_TRUE(fleet->RunFor(1800.0).ok());
    ASSERT_EQ(fleet->reports().size(), 6u);
    ExpectDigestMatchesGolden(fleet->ControlDigest(),
                              "metric_delay_3x1800s.digest", threads);
  }
}

// testdata/default_config_2x900s.digest holds ControlDigest() of two
// MakeTenantFleet tenants under the default FleetConfig (the arbiter's
// full 32 x 16 NSGA-II) on $0.01 per tenant-hour, for one 900 s window.
// It is the smallest fleet golden that fused multiply-adds move: built
// at -march=x86-64-v3 with -ffp-contract=fast instead of the library's
// -ffp-contract=off, line 2 (tenant t0000's grant) reads 0.011647 for
// 0.011646 (EXPERIMENTS PERF15), while the three goldens above still
// match. Regenerated like the homogeneous golden.
TEST(WorkStealSweepTest, DefaultConfigDigestMatchesGolden) {
  for (size_t threads : {1, 4}) {
    FleetConfig c;
    c.fleet_budget_usd_per_hour = 0.02;
    c.num_threads = threads;
    c.partition.horizon_sec = 900.0;
    FleetManager fleet(c);
    for (TenantConfig& t : MakeTenantFleet(2, /*seed=*/1)) {
      ASSERT_TRUE(fleet.AddTenant(std::move(t)).ok());
    }
    ASSERT_TRUE(fleet.Start().ok());
    ASSERT_TRUE(fleet.RunFor(900.0).ok());
    ASSERT_EQ(fleet.reports().size(), 1u);
    ExpectDigestMatchesGolden(fleet.ControlDigest(),
                              "default_config_2x900s.digest", threads);
  }
}

TEST(WorkStealSweepTest, HeterogeneousDigestIdenticalAcrossThreadCounts) {
  std::string digests[3];
  const size_t thread_counts[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<FleetManager> fleet =
        MakeHeterogeneousFleet(thread_counts[i]);
    ASSERT_TRUE(fleet->RunFor(360.0).ok());
    digests[i] = fleet->ControlDigest();
    EXPECT_EQ(fleet->sweep_stats().conservation_violations, 0u)
        << thread_counts[i] << " threads";
    EXPECT_DOUBLE_EQ(fleet->Now(), 360.0);
  }
  ASSERT_FALSE(digests[0].empty());
  EXPECT_EQ(digests[0], digests[1]);  // 1 vs 4 threads.
  EXPECT_EQ(digests[0], digests[2]);  // ... and 16.
}

TEST(WorkStealSweepTest, HeterogeneousWindowsConserveBudgetAtEveryInstant) {
  std::unique_ptr<FleetManager> fleet = MakeHeterogeneousFleet(4);
  ASSERT_TRUE(fleet->RunFor(360.0).ok());
  const std::vector<FleetPeriodReport>& reports = fleet->reports();
  ASSERT_FALSE(reports.empty());
  for (const FleetPeriodReport& r : reports) {
    EXPECT_TRUE(r.conservation_ok)
        << "window [" << r.start << ", " << r.end << ")";
    EXPECT_LT(r.start, r.end);
  }
  // Stronger: reconstruct per-tenant grant intervals and check that the
  // *simultaneously active* grants never exceed the fleet budget, at
  // every window-open instant. This is the overlapping-window invariant
  // the per-window flag alone cannot see.
  struct Interval {
    double start, end, grant;
    std::string tenant;
  };
  std::vector<Interval> intervals;
  std::set<double> instants;
  for (const FleetPeriodReport& r : reports) {
    instants.insert(r.start);
    for (const TenantPeriodOutcome& row : r.tenants) {
      intervals.push_back({r.start, r.end, row.grant_usd, row.tenant});
    }
  }
  for (double t : instants) {
    double active = 0.0;
    for (const Interval& iv : intervals) {
      if (iv.start <= t && t < iv.end) active += iv.grant;
    }
    EXPECT_LE(active, 2.0 * (1.0 + 1e-9) + 1e-12) << "at t=" << t;
  }
  // Each tenant's own windows tile [0, 360) without gaps or overlaps.
  for (size_t i = 0; i < fleet->num_tenants(); ++i) {
    const std::string& id = fleet->partition(i)->tenant().id;
    std::vector<Interval> own;
    for (const Interval& iv : intervals) {
      if (iv.tenant == id) own.push_back(iv);
    }
    std::sort(own.begin(), own.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    ASSERT_FALSE(own.empty());
    EXPECT_DOUBLE_EQ(own.front().start, 0.0);
    EXPECT_DOUBLE_EQ(own.back().end, 360.0);
    for (size_t k = 1; k < own.size(); ++k) {
      EXPECT_DOUBLE_EQ(own[k].start, own[k - 1].end) << "tenant " << id;
    }
  }
}

TEST(WorkStealSweepTest, RepeatedRunForMatchesOneShotDigest) {
  // Two 300 s sweeps arbitrate at t=0 and t=300 — exactly the
  // boundaries one 600 s sweep hits — so the decision stream must be
  // byte-identical however the horizon is sliced.
  std::unique_ptr<FleetManager> split = MakeHomogeneousFleet(4, 2);
  std::unique_ptr<FleetManager> whole = MakeHomogeneousFleet(4, 2);
  ASSERT_TRUE(split->RunFor(300.0).ok());
  ASSERT_TRUE(split->RunFor(300.0).ok());
  ASSERT_TRUE(whole->RunFor(600.0).ok());
  EXPECT_EQ(split->ControlDigest(), whole->ControlDigest());
  EXPECT_EQ(split->reports().size(), whole->reports().size());
}

TEST(WorkStealSweepTest, SweepStatsDescribeScheduleNotResults) {
  std::unique_ptr<FleetManager> fleet = MakeHeterogeneousFleet(4);
  ASSERT_TRUE(fleet->RunFor(360.0).ok());
  FleetSweepStats stats = fleet->sweep_stats();
  // Every boundary event ran: 30 s lattice has 12 boundaries in
  // [0, 360), 45 s adds 45/135/225/315, 60 s adds none new.
  EXPECT_EQ(stats.arbitration_events, 16u);
  EXPECT_GT(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.conservation_violations, 0u);
  EXPECT_GT(stats.busy_sec, 0.0);
  EXPECT_GT(stats.wall_sec, 0.0);
  EXPECT_GT(stats.overlap_ratio(), 0.0);

  // Every tenant shares the start boundary, which is arbitrated before
  // any task runs: a sweep of one window parks no one.
  std::unique_ptr<FleetManager> one_window = MakeHomogeneousFleet(4, 4);
  ASSERT_TRUE(one_window->RunFor(300.0).ok());
  EXPECT_EQ(one_window->sweep_stats().mailbox_waits, 0u);
  EXPECT_EQ(one_window->sweep_stats().tasks_executed, 4u);
}

TEST(WorkStealSweepTest, ReportsCapacityIsReservedOnce) {
  // The sweep sizes reports_ up front; steady-state appends must not
  // reallocate (the perf_micro guard asserts the same on the hot path).
  std::unique_ptr<FleetManager> fleet = MakeHomogeneousFleet(3, 1);
  ASSERT_TRUE(fleet->RunFor(900.0).ok());
  EXPECT_EQ(fleet->reports().capacity(), fleet->reports().size());
  size_t after_first = fleet->reports().size();
  ASSERT_TRUE(fleet->RunFor(900.0).ok());
  EXPECT_GT(fleet->reports().size(), after_first);
  EXPECT_EQ(fleet->reports().capacity(), fleet->reports().size());
}

TEST(WorkStealSweepTest, InvalidArbitrationPeriodRejectedAtAddTenant) {
  FleetManager fleet(SweepTestConfig(1));
  TenantConfig t;
  t.id = "bad";
  t.arbitration_period_sec = -30.0;
  EXPECT_FALSE(fleet.AddTenant(t).ok());
}

TEST(WorkStealSweepTest, ApplyPeriodJitterIsDeterministicDivisorSpread) {
  std::vector<TenantConfig> a = MakeTenantFleet(16, 5);
  std::vector<TenantConfig> b = MakeTenantFleet(16, 5);
  ApplyPeriodJitter(&a, 900.0, 13);
  ApplyPeriodJitter(&b, 900.0, 13);
  std::set<double> distinct;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arbitration_period_sec, b[i].arbitration_period_sec);
    double p = a[i].arbitration_period_sec;
    EXPECT_TRUE(p == 900.0 || p == 450.0 || p == 300.0 || p == 225.0)
        << "tenant " << i << " period " << p;
    distinct.insert(p);
  }
  // 16 tenants over 4 divisors: a genuinely mixed fleet.
  EXPECT_GT(distinct.size(), 1u);
}

}  // namespace
}  // namespace flower::fleet
