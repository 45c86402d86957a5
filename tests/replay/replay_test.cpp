// Flight recorder + deterministic replay: recorder semantics, bundle
// round-trips, alert-triggered capture, solo-tenant replay determinism
// across solver thread counts, and divergence detection on corrupted
// bundles.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/fleet_manager.h"
#include "fleet/partition_spec.h"
#include "fleet/replay_harness.h"
#include "obs/replay/bundle.h"
#include "obs/replay/divergence.h"
#include "obs/replay/flight_recorder.h"
#include "obs/span.h"

namespace flower {
namespace {

using obs::replay::CaptureBundle;
using obs::replay::FlightRecorder;
using obs::replay::RecordedFault;
using obs::replay::RecorderConfig;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Loop table the unit-test recorders resolve loop ids against: 0 is
/// "analytics", 1 is "storage".
const obs::LoopTable* TestLoops() {
  static const obs::LoopTable loops = [] {
    obs::LoopTable table;
    (void)table.Register({"analytics", "analytics", "adaptive-gain"});
    (void)table.Register({"storage", "storage", "adaptive-gain"});
    return table;
  }();
  return &loops;
}

obs::ControlDecisionRecord MakeDecision(double t, const char* loop, double y,
                                        double raw_u, double u) {
  obs::ControlDecisionRecord rec;
  rec.time = t;
  rec.loop = std::string(loop) == "analytics" ? 0 : 1;
  rec.sensed_y = y;
  rec.raw_u = raw_u;
  rec.clamped_u = u;
  return rec;
}

// --- FlightRecorder unit tests. ------------------------------------

TEST(FlightRecorderTest, ChainIsDeterministicAndOrderSensitive) {
  FlightRecorder a;
  FlightRecorder b;
  a.SetLoopTable(TestLoops());
  b.SetLoopTable(TestLoops());
  a.RecordDecision(MakeDecision(60.0, "analytics", 55.0, 4.0, 4.0));
  a.RecordDecision(MakeDecision(120.0, "storage", 70.0, 90.0, 80.0));
  b.RecordDecision(MakeDecision(60.0, "analytics", 55.0, 4.0, 4.0));
  b.RecordDecision(MakeDecision(120.0, "storage", 70.0, 90.0, 80.0));
  EXPECT_EQ(a.chain_hash(), b.chain_hash());
  EXPECT_EQ(a.total_decisions(), 2u);

  FlightRecorder c;  // Same decisions, swapped order: different chain.
  c.SetLoopTable(TestLoops());
  c.RecordDecision(MakeDecision(120.0, "storage", 70.0, 90.0, 80.0));
  c.RecordDecision(MakeDecision(60.0, "analytics", 55.0, 4.0, 4.0));
  EXPECT_NE(a.chain_hash(), c.chain_hash());
}

TEST(FlightRecorderTest, DecisionRingEvictsOldestAndKeepsCheckpoints) {
  RecorderConfig config;
  config.decision_capacity = 4;
  config.checkpoint_every = 2;
  config.checkpoint_capacity = 8;
  FlightRecorder rec(config);
  rec.SetLoopTable(TestLoops());
  for (int i = 0; i < 10; ++i) {
    rec.RecordDecision(
        MakeDecision(60.0 * (i + 1), "analytics", 50.0 + i, 4.0, 4.0));
  }
  EXPECT_EQ(rec.total_decisions(), 10u);
  std::vector<obs::replay::RecordedDecision> kept = rec.Decisions();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().index, 6u);  // Oldest retained.
  EXPECT_EQ(kept.back().index, 9u);
  EXPECT_DOUBLE_EQ(rec.window_start(), 60.0 * 7);
  // Every 2nd decision checkpointed: indexes 1, 3, 5, 7, 9.
  std::vector<obs::replay::HashCheckpoint> cps = rec.Checkpoints();
  ASSERT_EQ(cps.size(), 5u);
  EXPECT_EQ(cps.front().index, 1u);
  EXPECT_EQ(cps.back().index, 9u);
  EXPECT_EQ(cps.back().chain, kept.back().chain);
}

TEST(FlightRecorderTest, TriggerLatchesFirstAlert) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.trigger().fired);
  rec.Trigger(900.0, "analytics/utilization", 15.0, 14.5);
  rec.Trigger(1800.0, "storage/utilization", 99.0, 99.0);
  EXPECT_TRUE(rec.trigger().fired);
  EXPECT_DOUBLE_EQ(rec.trigger().time, 900.0);
  EXPECT_EQ(rec.trigger().reason, "analytics/utilization");
  EXPECT_DOUBLE_EQ(rec.trigger().burn_fast, 15.0);
}

TEST(FlightRecorderTest, FingerprintCoversIdentitySpecAndFaults) {
  FlightRecorder a;
  a.SetIdentity("t0", 0, 42);
  a.SetSpec({{"tenant.seed", "42"}});
  uint64_t base = a.Fingerprint();

  FlightRecorder b;
  b.SetIdentity("t0", 0, 42);
  b.SetSpec({{"tenant.seed", "42"}});
  EXPECT_EQ(b.Fingerprint(), base);

  b.SetIdentity("t0", 0, 43);  // Seed change.
  EXPECT_NE(b.Fingerprint(), base);
  b.SetIdentity("t0", 0, 42);
  EXPECT_EQ(b.Fingerprint(), base);

  RecordedFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  b.AddFault(fault);  // Fault schedule change.
  EXPECT_NE(b.Fingerprint(), base);
  b.ClearFaults();
  EXPECT_EQ(b.Fingerprint(), base);
}

// --- Bundle JSON round-trip. ---------------------------------------

TEST(BundleTest, JsonRoundTripPreservesEveryField) {
  RecorderConfig config;
  config.decision_capacity = 8;
  FlightRecorder rec(config);
  rec.SetLoopTable(TestLoops());
  rec.SetIdentity("tenant-7", 7, 0xDEADBEEFCAFEF00Dull);
  rec.SetSpec({{"tenant.id", "tenant-7"}, {"tenant.seed", "16045690985373815821"}});
  RecordedFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  fault.start = 300.0;
  fault.end = std::numeric_limits<double>::infinity();
  fault.offset = 200.0;
  rec.AddFault(fault);
  for (int i = 0; i < 12; ++i) {
    rec.RecordDecision(
        MakeDecision(60.0 * (i + 1), "analytics", 50.0 + 0.125 * i,
                     1.0 / 3.0 + i, 4.0));
  }
  rec.RecordGrant(0.0, 1.25, 0.75);
  rec.RecordGrant(600.0, 2.5, 1.5);
  const double shares[3] = {8.0, 4.0, 120.0};
  rec.RecordReplan(601.0, 1.5, shares, 3, true);
  rec.Trigger(720.0, "analytics/utilization", 20.0, 14.44);

  CaptureBundle bundle = obs::replay::BundleFromRecorder(rec);
  std::string path = TempPath("roundtrip_bundle.json");
  ASSERT_TRUE(obs::replay::WriteBundleJson(bundle, path).ok());
  auto loaded = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->schema_version, obs::replay::kBundleSchemaVersion);
  EXPECT_EQ(loaded->tenant_id, "tenant-7");
  EXPECT_EQ(loaded->tenant_index, 7u);
  EXPECT_EQ(loaded->seed, 0xDEADBEEFCAFEF00Dull);  // > 2^53: exact u64.
  EXPECT_EQ(loaded->fingerprint, bundle.fingerprint);
  EXPECT_EQ(loaded->chain_hash, bundle.chain_hash);
  EXPECT_EQ(loaded->total_decisions, 12u);
  EXPECT_EQ(loaded->spec, bundle.spec);

  ASSERT_EQ(loaded->faults.size(), 1u);
  EXPECT_EQ(loaded->faults[0].kind, "sensor-spike");
  EXPECT_TRUE(std::isinf(loaded->faults[0].end));  // Non-finite survives.
  EXPECT_DOUBLE_EQ(loaded->faults[0].offset, 200.0);

  EXPECT_TRUE(loaded->trigger.fired);
  EXPECT_DOUBLE_EQ(loaded->trigger.time, 720.0);
  EXPECT_EQ(loaded->trigger.reason, "analytics/utilization");

  ASSERT_EQ(loaded->grants.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->grants[1].grant_usd, 1.5);
  ASSERT_EQ(loaded->replans.size(), 1u);
  EXPECT_EQ(loaded->replans[0].num_shares, 3);
  EXPECT_DOUBLE_EQ(loaded->replans[0].shares[2], 120.0);

  ASSERT_EQ(loaded->decisions.size(), bundle.decisions.size());
  for (size_t i = 0; i < bundle.decisions.size(); ++i) {
    EXPECT_EQ(loaded->decisions[i].index, bundle.decisions[i].index);
    EXPECT_EQ(loaded->decisions[i].chain, bundle.decisions[i].chain);
    EXPECT_EQ(loaded->decisions[i].line_hash, bundle.decisions[i].line_hash);
    // %.17g doubles round-trip bit-exactly.
    const obs::ControlDecisionRecord& got = loaded->decisions[i].record;
    const obs::ControlDecisionRecord& want = bundle.decisions[i].record;
    EXPECT_DOUBLE_EQ(got.sensed_y, want.sensed_y);
    EXPECT_DOUBLE_EQ(got.raw_u, want.raw_u);
    EXPECT_EQ(loaded->LoopName(got.loop), bundle.LoopName(want.loop));
  }
  EXPECT_EQ(loaded->checkpoints.size(), bundle.checkpoints.size());
  EXPECT_EQ(obs::replay::BundleFingerprint(*loaded), loaded->fingerprint);
}

// A loop name longer than any fixed-width slot survives the recorder,
// the bundle file and the loader in full.
TEST(BundleTest, LongLoopNameSurvivesRoundTrip) {
  const std::string name = "ingestion-clickstream-shard-07";
  ASSERT_EQ(name.size(), 30u);
  obs::LoopTable loops;
  auto id = loops.Register({name, "ingestion", "adaptive-gain"});
  ASSERT_TRUE(id.ok());
  FlightRecorder rec;
  rec.SetLoopTable(&loops);
  obs::ControlDecisionRecord decision = MakeDecision(60.0, "analytics", 55.0,
                                                     4.0, 4.0);
  decision.loop = *id;
  rec.RecordDecision(decision);
  rec.Trigger(60.0, "explicit");

  std::string path = TempPath("long_loop_bundle.json");
  ASSERT_TRUE(
      obs::replay::WriteBundleJson(obs::replay::BundleFromRecorder(rec), path)
          .ok());
  auto loaded = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->decisions.size(), 1u);
  EXPECT_EQ(loaded->LoopName(loaded->decisions[0].record.loop), name);
}

// --- Partition spec round-trip. ------------------------------------

TEST(PartitionSpecTest, SerializeParseRoundTrip) {
  // Every one of the 34 fields away from its default, so a key that is
  // not read, or read into another field, shows in the fixed point.
  fleet::TenantConfig tenant = fleet::MakeTenantFleet(3, 77)[2];
  tenant.seed = std::numeric_limits<uint64_t>::max();
  tenant.pattern = fleet::ArrivalPattern::kMmpp;
  tenant.arbitration_period_sec = 300.0;
  tenant.monitoring_period_sec = 90.0;
  tenant.max_wcu = 1234.5;
  tenant.initial_shards = 3;
  tenant.initial_workers = 4;
  fleet::PartitionConfig config;
  config.arbitration_period_sec = 450.0;
  config.replan_offset_sec = 2.5;
  config.horizon_sec = 7200.0;
  config.workload_emit_period_sec = 10.0;
  config.storm_tick_period_sec = 2.0;
  config.flow_solver.population_size = 24;
  config.flow_solver.generations = 7;
  config.flow_incremental.warm_start = false;
  config.flow_incremental.cache = false;
  config.flow_incremental.stall_generations = 5;
  config.capture.health_trigger = true;
  config.capture.health_eval_period_sec = 30.0;
  config.capture.util_threshold = 80.5;
  config.capture.slo_objective = 0.9;
  config.capture.slo_fast_window_sec = 120.0;
  config.capture.slo_slow_window_sec = 600.0;
  auto spec = fleet::SerializePartitionSpec(tenant, config);
  const auto defaults = fleet::SerializePartitionSpec(fleet::TenantConfig{},
                                                      fleet::PartitionConfig{});
  ASSERT_EQ(spec.size(), 34u);
  ASSERT_EQ(defaults.size(), spec.size());
  for (size_t i = 0; i < spec.size(); ++i) {
    EXPECT_NE(spec[i].second, defaults[i].second) << spec[i].first;
  }

  fleet::TenantConfig tenant2;
  fleet::PartitionConfig config2;
  ASSERT_TRUE(fleet::ParsePartitionSpec(spec, &tenant2, &config2).ok());
  EXPECT_EQ(tenant2.id, tenant.id);
  EXPECT_EQ(tenant2.seed, tenant.seed);
  EXPECT_EQ(tenant2.pattern, tenant.pattern);
  EXPECT_DOUBLE_EQ(tenant2.base_rate_per_sec, tenant.base_rate_per_sec);
  EXPECT_EQ(tenant2.max_shards, tenant.max_shards);
  EXPECT_DOUBLE_EQ(config2.arbitration_period_sec, 450.0);
  EXPECT_EQ(config2.flow_solver.population_size, 24u);
  EXPECT_FALSE(config2.flow_incremental.cache);
  EXPECT_EQ(config2.flow_incremental.stall_generations, 5u);
  EXPECT_TRUE(config2.capture.health_trigger);
  EXPECT_DOUBLE_EQ(config2.capture.slo_slow_window_sec, 600.0);
  // Round-trip is a fixed point: each key reads back into the field it
  // was written from.
  EXPECT_EQ(fleet::SerializePartitionSpec(tenant2, config2), spec);
}

// A bundle stores the spec in this order, and its fingerprint hashes the
// spec in order, so the order is part of the bundle format.
TEST(PartitionSpecTest, KeysAreWrittenInBundleOrder) {
  const std::vector<std::string> expected = {
      "tenant.id",
      "tenant.seed",
      "tenant.initial_budget_usd",
      "tenant.budget_weight",
      "tenant.pattern",
      "tenant.base_rate_per_sec",
      "tenant.amplitude_per_sec",
      "tenant.period_sec",
      "tenant.phase_sec",
      "tenant.initial_shards",
      "tenant.max_shards",
      "tenant.initial_workers",
      "tenant.max_workers",
      "tenant.initial_wcu",
      "tenant.max_wcu",
      "tenant.reference_utilization_pct",
      "tenant.monitoring_period_sec",
      "tenant.arbitration_period_sec",
      "partition.arbitration_period_sec",
      "partition.replan_offset_sec",
      "partition.horizon_sec",
      "partition.workload_emit_period_sec",
      "partition.storm_tick_period_sec",
      "partition.solver_population",
      "partition.solver_generations",
      "partition.warm_start",
      "partition.cache",
      "partition.stall_generations",
      "capture.health_trigger",
      "capture.health_eval_period_sec",
      "capture.util_threshold",
      "capture.slo_objective",
      "capture.slo_fast_window_sec",
      "capture.slo_slow_window_sec",
  };
  std::vector<std::string> keys;
  for (const auto& [key, value] : fleet::SerializePartitionSpec(
           fleet::TenantConfig{}, fleet::PartitionConfig{})) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, expected);

  auto fixture = obs::replay::LoadBundleJson(
      std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json");
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  std::vector<std::string> fixture_keys;
  for (const auto& [key, value] : fixture->spec) fixture_keys.push_back(key);
  EXPECT_EQ(fixture_keys, expected);
}

// --- Capture -> replay end to end. ---------------------------------

// One small fleet with a deterministic sensor-spike fault on tenant 0;
// capture armed with burn-rate health triggers. Returns the manager
// after running long enough for the alert edge to latch the trigger.
std::unique_ptr<fleet::FleetManager> RunCapturedFleet(size_t num_threads) {
  fleet::FleetConfig config;
  config.num_threads = num_threads;
  config.partition.capture.enabled = true;
  config.partition.capture.health_trigger = true;
  auto manager = std::make_unique<fleet::FleetManager>(config);
  std::vector<fleet::TenantConfig> tenants = fleet::MakeTenantFleet(2, 99);
  fleet::TenantFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  fault.start = 300.0;
  fault.offset = 200.0;  // Sensed y pinned far above any threshold.
  tenants[0].faults.push_back(fault);
  for (fleet::TenantConfig& t : tenants) {
    EXPECT_TRUE(manager->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(manager->Start().ok());
  EXPECT_TRUE(manager->RunFor(1800.0).ok());
  return manager;
}

TEST(ReplayTest, AlertTriggeredCaptureReplaysIdentically) {
  std::unique_ptr<fleet::FleetManager> manager = RunCapturedFleet(2);
  const FlightRecorder* rec = manager->partition(0)->recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->trigger().fired) << "burn-rate alert never fired";
  EXPECT_EQ(rec->trigger().reason, "analytics/utilization");
  ASSERT_GT(rec->total_decisions(), 0u);

  // Dump through the real file path: replay consumes what ops would.
  std::string path = TempPath("captured_bundle.json");
  ASSERT_TRUE(manager->DumpBundle(0, path).ok());
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->tenant_index, 0u);

  auto harness = fleet::ReplayHarness::Create(*bundle);
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_FALSE(report.diverged) << report.ToString();
  EXPECT_TRUE(report.fingerprint_match);
  EXPECT_TRUE(report.chain_match);
  EXPECT_GE(report.replayed_total, report.recorded_total);
  std::string digest;
  (*harness)->partition().AppendDigest(&digest);
  EXPECT_FALSE(digest.empty());
  // Replay-rich telemetry is on even though the fleet run had it off,
  // so the re-injected sensor spikes show up as kFault spans.
  const obs::SpanCollector& spans = (*harness)->partition().telemetry().spans();
  EXPECT_TRUE(spans.enabled());
  size_t fault_spans = 0;
  for (obs::SpanId id = spans.first_retained(); id < spans.end_id(); ++id) {
    const obs::SpanRecord* r = spans.Find(id);
    if (r != nullptr && r->kind == obs::SpanKind::kFault) ++fault_spans;
  }
  EXPECT_GT(fault_spans, 0u);
  EXPECT_NE((*harness)->partition().health(), nullptr);
}

TEST(ReplayTest, CaptureIsIdenticalAcrossFleetThreadCounts) {
  std::unique_ptr<fleet::FleetManager> one = RunCapturedFleet(1);
  std::unique_ptr<fleet::FleetManager> four = RunCapturedFleet(4);
  auto a = one->partition(0)->MakeBundle();
  auto b = four->partition(0)->MakeBundle();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(a->chain_hash, b->chain_hash);
  EXPECT_EQ(a->total_decisions, b->total_decisions);
  EXPECT_DOUBLE_EQ(a->trigger.time, b->trigger.time);
}

TEST(ReplayTest, CorruptedSeedIsCaughtAtTheFirstDecision) {
  std::unique_ptr<fleet::FleetManager> manager = RunCapturedFleet(1);
  auto bundle = manager->partition(0)->MakeBundle();
  ASSERT_TRUE(bundle.ok());
  ASSERT_FALSE(bundle->decisions.empty());

  CaptureBundle corrupted = *bundle;
  corrupted.seed += 1;  // The recorded inputs no longer match the hash.
  EXPECT_NE(obs::replay::BundleFingerprint(corrupted),
            corrupted.fingerprint);

  auto harness = fleet::ReplayHarness::Create(corrupted);
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_TRUE(report.diverged);
  EXPECT_FALSE(report.fingerprint_match);
  EXPECT_FALSE(report.chain_match);
  ASSERT_TRUE(report.has_first_mismatch);
  // A wrong seed perturbs the workload from t=0: the very first
  // retained decision must be the reported mismatch, at its recorded
  // timestamp.
  EXPECT_EQ(report.first_mismatch_index, bundle->decisions.front().index);
  EXPECT_DOUBLE_EQ(report.first_mismatch_time,
                   bundle->decisions.front().record.time);
}

TEST(ReplayTest, ExplicitDumpWithoutAlertIsReplayable) {
  fleet::FleetConfig config;
  config.partition.capture.enabled = true;  // No health trigger.
  fleet::FleetManager manager(config);
  for (fleet::TenantConfig& t : fleet::MakeTenantFleet(2, 7)) {
    ASSERT_TRUE(manager.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(manager.Start().ok());
  ASSERT_TRUE(manager.RunFor(1200.0).ok());
  std::string path = TempPath("explicit_bundle.json");
  ASSERT_TRUE(manager.DumpBundle(1, path).ok());
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_TRUE(bundle->trigger.fired);
  EXPECT_EQ(bundle->trigger.reason, "explicit");
  EXPECT_EQ(bundle->tenant_index, 1u);

  auto harness = fleet::ReplayHarness::Create(*bundle);
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_FALSE(report.diverged) << report.ToString();
  // The replay's spans are its own collector's: numbered from 1
  // whatever the tenant's index.
  const obs::SpanCollector& spans = (*harness)->partition().telemetry().spans();
  EXPECT_GT(spans.total_started(), 0u);
  EXPECT_EQ(spans.first_retained(), 1u);
  ASSERT_NE(spans.Find(1), nullptr);
}

// A fleet whose tenants arbitrate on different horizons (450 s vs the
// fleet-wide 900 s): the work-stealing sweep interleaves their boundary
// events, and the captured bundle must still replay bit-for-bit.
std::unique_ptr<fleet::FleetManager> RunHeterogeneousCapturedFleet(
    size_t num_threads) {
  fleet::FleetConfig config;
  config.num_threads = num_threads;
  config.partition.capture.enabled = true;
  config.partition.capture.health_trigger = true;
  auto manager = std::make_unique<fleet::FleetManager>(config);
  std::vector<fleet::TenantConfig> tenants = fleet::MakeTenantFleet(2, 99);
  tenants[0].arbitration_period_sec = 450.0;  // Faster than the fleet.
  fleet::TenantFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  fault.start = 300.0;
  fault.offset = 200.0;
  tenants[0].faults.push_back(fault);
  for (fleet::TenantConfig& t : tenants) {
    EXPECT_TRUE(manager->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(manager->Start().ok());
  EXPECT_TRUE(manager->RunFor(1800.0).ok());
  return manager;
}

TEST(ReplayTest, HeterogeneousHorizonCaptureReplaysWithoutDivergence) {
  std::unique_ptr<fleet::FleetManager> one = RunHeterogeneousCapturedFleet(1);
  std::unique_ptr<fleet::FleetManager> four = RunHeterogeneousCapturedFleet(4);
  // The capture itself is thread-count-invariant even when boundary
  // events interleave across tenants.
  auto a = one->partition(0)->MakeBundle();
  auto b = four->partition(0)->MakeBundle();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(a->chain_hash, b->chain_hash);

  const FlightRecorder* rec = four->partition(0)->recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->trigger().fired) << "burn-rate alert never fired";

  // The faster tenant recorded a grant at its own 450 s boundary, off
  // the fleet's 900 s lattice.
  std::string path = TempPath("hetero_bundle.json");
  ASSERT_TRUE(four->DumpBundle(0, path).ok());
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  bool has_midperiod_grant = false;
  for (const auto& g : bundle->grants) {
    if (g.time == 450.0 || g.time == 1350.0) has_midperiod_grant = true;
  }
  EXPECT_TRUE(has_midperiod_grant);
  bool spec_has_period = false;
  for (const auto& [key, value] : bundle->spec) {
    if (key == "tenant.arbitration_period_sec" && value == "450") {
      spec_has_period = true;
    }
  }
  EXPECT_TRUE(spec_has_period);

  auto harness = fleet::ReplayHarness::Create(*bundle);
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_FALSE(report.diverged) << report.ToString();
  EXPECT_TRUE(report.fingerprint_match);
  EXPECT_TRUE(report.chain_match);
}

// Each partition's recorder holds every grant the partition applied,
// and each one is that tenant's row of reports(): window start, the
// demand the arbitration ran on, then the grant, in window order. The
// grant lists are the same at any thread count.
TEST(ReplayTest, RecordedGrantsMatchFleetReports) {
  using Grant = std::tuple<SimTime, double, double>;
  const size_t thread_counts[2] = {1, 4};
  std::vector<std::vector<Grant>> grants[2];  // Per run, per tenant.
  for (int run = 0; run < 2; ++run) {
    std::unique_ptr<fleet::FleetManager> manager =
        RunHeterogeneousCapturedFleet(thread_counts[run]);
    for (size_t i = 0; i < manager->num_tenants(); ++i) {
      const FlightRecorder* rec = manager->partition(i)->recorder();
      ASSERT_NE(rec, nullptr);
      std::vector<Grant> recorded;
      for (const obs::replay::GrantEntry& g : rec->Grants()) {
        recorded.emplace_back(g.time, g.demand_usd, g.grant_usd);
      }
      std::vector<Grant> reported;
      for (const fleet::FleetPeriodReport& r : manager->reports()) {
        for (const fleet::TenantPeriodOutcome& row : r.tenants) {
          if (row.tenant != manager->partition(i)->tenant().id) continue;
          reported.emplace_back(r.start, row.demand_usd, row.grant_usd);
        }
      }
      EXPECT_FALSE(recorded.empty());
      EXPECT_EQ(recorded, reported)
          << thread_counts[run] << " threads, tenant " << i;
      grants[run].push_back(std::move(recorded));
    }
  }
  EXPECT_EQ(grants[0], grants[1]);
}

// A bundle whose spec carries a zero MMPP period is rejected when the
// partition is rebuilt, instead of hanging in MmppArrival's
// pre-sampling loop.
TEST(ReplayTest, BundleWithZeroMmppPeriodIsRejected) {
  fleet::TenantConfig tenant;
  tenant.pattern = fleet::ArrivalPattern::kMmpp;
  tenant.period_sec = 0.0;
  obs::replay::CaptureBundle bundle;
  bundle.spec = fleet::SerializePartitionSpec(tenant, fleet::PartitionConfig{});
  bundle.trigger.fired = true;
  bundle.trigger.time = 600.0;
  auto harness = fleet::ReplayHarness::Create(bundle);
  ASSERT_FALSE(harness.ok());
  EXPECT_EQ(harness.status().code(), StatusCode::kInvalidArgument);
}

// A sub-second monitoring period would schedule a control step every
// nanosecond; the rebuilt partition rejects it instead of hanging.
TEST(ReplayTest, BundleWithSubSecondMonitoringPeriodIsRejected) {
  fleet::TenantConfig tenant;
  tenant.monitoring_period_sec = 1e-9;
  obs::replay::CaptureBundle bundle;
  bundle.spec = fleet::SerializePartitionSpec(tenant, fleet::PartitionConfig{});
  bundle.trigger.fired = true;
  bundle.trigger.time = 600.0;
  auto harness = fleet::ReplayHarness::Create(bundle);
  ASSERT_FALSE(harness.ok());
  EXPECT_EQ(harness.status().code(), StatusCode::kInvalidArgument);
}

// --- Committed capture fixture. ------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// testdata/t0000.json was captured by
//   flower-sim --fleet --fleet-tenants=2 --hours=0.5 --fleet-fault
//              --fleet-capture-dir=DIR
// and pins the bundle format: it must keep loading, replaying to a
// match, and re-serializing byte for byte. A change that moves any
// decision must regenerate it.
TEST(ReplayTest, CommittedFixtureReplaysAndRoundTripsByteForByte) {
  const std::string fixture =
      std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json";
  auto bundle = obs::replay::LoadBundleJson(fixture);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->tenant_id, "t0000");
  EXPECT_EQ(bundle->decisions.size(), 27u);
  EXPECT_DOUBLE_EQ(bundle->trigger.time, 1080.0);

  std::string path = TempPath("fixture_roundtrip.json");
  ASSERT_TRUE(obs::replay::WriteBundleJson(*bundle, path).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(fixture));

  auto harness = fleet::ReplayHarness::Create(*bundle);
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_FALSE(report.diverged) << report.ToString();
  EXPECT_TRUE(report.fingerprint_match);
  EXPECT_TRUE(report.chain_match);
}

// Every hostile field a bundle can carry comes back as InvalidArgument
// from ReplayHarness::Create. Each case changes one field of the
// committed fixture in memory. Unchecked, these abort (a FLOWER_CHECK,
// or bad_alloc), hang (sub-second cadences, an infinite horizon or
// trigger, an unbounded solve, a rate no stream can be offered) or run
// undefined (a NaN SLO window cast to size_t).
TEST(ReplayTest, HostileBundlesAreRejected) {
  auto fixture = obs::replay::LoadBundleJson(
      std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json");
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  using Edits = std::vector<std::pair<std::string, std::string>>;
  auto spec = [](Edits edits) {
    return [edits](CaptureBundle* b) {
      for (const auto& [key, value] : edits) {
        bool found = false;
        for (auto& [k, v] : b->spec) {
          if (k == key) {
            v = value;
            found = true;
          }
        }
        ASSERT_TRUE(found) << key;
      }
    };
  };
  auto rename = [](std::string from, std::string to) {
    return [from, to](CaptureBundle* b) {
      for (auto& [k, v] : b->spec) {
        if (k == from) k = to;
      }
    };
  };
  auto add_row = [](std::string key, std::string value) {
    return [key, value](CaptureBundle* b) { b->spec.emplace_back(key, value); };
  };
  struct Case {
    const char* what;
    std::function<void(CaptureBundle*)> mutate;
    const char* names = nullptr;  ///< A key the error must name.
  };
  const std::vector<Case> cases = {
      {"emit period 0", spec({{"partition.workload_emit_period_sec", "0"}})},
      {"emit period nan",
       spec({{"partition.workload_emit_period_sec", "nan"}})},
      {"tick period 0", spec({{"partition.storm_tick_period_sec", "0"}})},
      {"tick period 1e-9", spec({{"partition.storm_tick_period_sec", "1e-9"}})},
      {"health period 1e-9",
       spec({{"capture.health_eval_period_sec", "1e-9"}})},
      {"mmpp horizon inf",
       spec({{"tenant.pattern", "mmpp"}, {"partition.horizon_sec", "inf"}})},
      {"solver population 1e11",
       spec({{"partition.solver_population", "100000000000"}})},
      {"solver generations 1e11, no stall exit",
       spec({{"partition.solver_generations", "100000000000"},
             {"partition.stall_generations", "0"}})},
      {"recorder decision capacity 1e15",
       [](CaptureBundle* b) {
         b->recorder.decision_capacity = 1000000000000000ULL;
       }},
      {"trigger time inf",
       [](CaptureBundle* b) { b->trigger.time = HUGE_VAL; }},
      {"SLO fast window nan", spec({{"capture.slo_fast_window_sec", "nan"}})},
      {"base rate 1e300", spec({{"tenant.base_rate_per_sec", "1e300"}})},
      {"amplitude 1e300", spec({{"tenant.amplitude_per_sec", "1e300"}})},
      {"max shards 2^32 + 58", spec({{"tenant.max_shards", "4294967354"}})},
      {"initial shards ' 2'", spec({{"tenant.initial_shards", " 2"}})},
      {"stall generations -3",
       spec({{"partition.stall_generations", "-3"}})},
      {"emit period ' 5'",
       spec({{"partition.workload_emit_period_sec", " 5"}})},
      // Every fault field is finite (end may be inf, as in the
      // fixture); a NaN fails each check.
      {"fault probability nan",
       [](CaptureBundle* b) { b->faults[0].probability = NAN; }},
      {"fault start nan", [](CaptureBundle* b) { b->faults[0].start = NAN; }},
      {"fault end nan", [](CaptureBundle* b) { b->faults[0].end = NAN; }},
      {"fault offset nan",
       [](CaptureBundle* b) { b->faults[0].offset = NAN; }},
      {"fault factor inf",
       [](CaptureBundle* b) { b->faults[0].factor = HUGE_VAL; }},
      {"metric-delay delay nan",
       [](CaptureBundle* b) {
         b->faults[0].kind = "metric-delay";
         b->faults[0].delay_sec = NAN;
       }},
      {"metric-delay delay inf",
       [](CaptureBundle* b) {
         b->faults[0].kind = "metric-delay";
         b->faults[0].delay_sec = HUGE_VAL;
       }},
      // A spec key is one the serializer writes, at most once; a
      // misspelt or repeated key would replay under a default or a
      // later value and report a false divergence.
      {"misspelt key tenant.max_wcx",
       rename("tenant.max_wcu", "tenant.max_wcx"), "tenant.max_wcx"},
      {"misspelt key tenant.initial_shard",
       rename("tenant.initial_shards", "tenant.initial_shard"),
       "tenant.initial_shard"},
      {"duplicate key, doubled value",
       add_row("tenant.max_wcu", "3657.7506927214472"), "tenant.max_wcu"},
      {"duplicate key, same value",
       add_row("tenant.initial_shards", "2"), "tenant.initial_shards"},
      {"unknown key", add_row("tenant.colour", "blue"), "tenant.colour"},
  };
  ASSERT_EQ(fixture->faults.size(), 1u);
  for (const Case& c : cases) {
    CaptureBundle bundle = *fixture;
    c.mutate(&bundle);
    auto harness = fleet::ReplayHarness::Create(bundle);
    ASSERT_FALSE(harness.ok()) << c.what;
    EXPECT_EQ(harness.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << harness.status();
    if (c.names != nullptr) {
      EXPECT_NE(harness.status().message().find(c.names), std::string::npos)
          << c.what << ": " << harness.status();
    }
  }

  // Edited recorded rows fail LoadBundleJson's own checks: a decision
  // row no longer hashes to its line_hash, and a re-plan budget is not
  // finite and >= 0. Each edit replayed to a match before bundles
  // verified themselves. Decision 0 is an ingestion row with a finite y.
  // The summary is that of the last row: a flipped chain_hash bit, or a
  // total_decisions raised by 5, replayed as a divergence with no first
  // mismatch.
  const std::string text =
      ReadFile(std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json");
  const std::string row0 = "{\"index\": 0, \"time\": 120, "
                           "\"loop\": \"ingestion\", "
                           "\"y\": 0.4325, ";
  struct TextEdit {
    std::string from;
    std::string to;
    const char* names;  ///< The decision index or field the error names.
  };
  const std::vector<TextEdit> edits = {
      {"\"u\": 1, \"out\": 0, \"line_hash\": \"11872574374734528044\"",
       "\"u\": 999, \"out\": 0, \"line_hash\": \"11872574374734528044\"",
       "decision 0"},
      {row0, "{\"index\": 0, \"time\": 120, \"loop\": \"ingestion\", "
             "\"y\": \"nan\", ",
       "decision 0"},
      {row0, "{\"index\": 0, \"time\": 120, \"loop\": \"storage\", "
             "\"y\": 0.4325, ",
       "decision 0"},
      {row0, "{\"index\": 0, \"time\": \"nan\", \"loop\": \"ingestion\", "
             "\"y\": 0.4325, ",
       "decision 0"},
      {"\"budget_usd\": 0.23695682625001072", "\"budget_usd\": -1",
       "budget_usd"},
      {"\"chain_hash\": \"9952445310767775699\"",
       "\"chain_hash\": \"9952445310767775698\"", "chain_hash"},
      {"\"total_decisions\": 27", "\"total_decisions\": 32",
       "total_decisions"},
  };
  for (const TextEdit& e : edits) {
    std::string edited = text;
    const size_t at = edited.find(e.from);
    ASSERT_NE(at, std::string::npos) << e.from;
    edited.replace(at, e.from.size(), e.to);
    const std::string path = TempPath("hostile_row.json");
    std::ofstream(path, std::ios::binary) << edited;
    auto bundle = obs::replay::LoadBundleJson(path);
    ASSERT_FALSE(bundle.ok()) << e.to;
    EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument)
        << e.to << ": " << bundle.status();
    EXPECT_NE(bundle.status().message().find(e.names), std::string::npos)
        << e.to << ": " << bundle.status();
  }

  // A bundle nests four deep. The reader recurses once per level, so it
  // refuses more than 16, naming the byte where the 17th opens, instead
  // of running out of stack.
  const std::string path = TempPath("hostile_nesting.json");
  std::ofstream(path, std::ios::binary)
      << std::string(100000, '[') << std::string(100000, ']');
  auto nested = obs::replay::LoadBundleJson(path);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument)
      << nested.status();
  EXPECT_NE(nested.status().message().find("at byte 16"), std::string::npos)
      << nested.status();
}

// With no decision retained, a bundle's summary is 0 decisions and the
// empty chain; any other summary is InvalidArgument.
TEST(ReplayTest, BundleWithNoRowsHasAnEmptySummary) {
  auto fixture = obs::replay::LoadBundleJson(
      std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json");
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  CaptureBundle empty = *fixture;
  empty.decisions.clear();
  empty.checkpoints.clear();
  const std::string path = TempPath("empty_summary.json");
  for (const auto& [decisions, chain_hash, ok] :
       {std::tuple{uint64_t{0}, obs::replay::kFnvOffsetBasis, true},
        std::tuple{fixture->total_decisions, obs::replay::kFnvOffsetBasis,
                   false},
        std::tuple{uint64_t{0}, fixture->chain_hash, false}}) {
    empty.total_decisions = decisions;
    empty.chain_hash = chain_hash;
    ASSERT_TRUE(obs::replay::WriteBundleJson(empty, path).ok());
    auto loaded = obs::replay::LoadBundleJson(path);
    EXPECT_EQ(loaded.ok(), ok) << decisions << " decisions, chain "
                               << chain_hash << ": " << loaded.status();
    if (!ok) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// The bundle's own integer fields take a string of digits only, or an
// integral JSON number below 2^64, range-checked against the field's
// type. A sign or leading whitespace in the string, or a number out of
// range, is InvalidArgument from LoadBundleJson, not a wrapped value or
// an undefined cast.
TEST(ReplayTest, MalformedBundleIntegersAreRejected) {
  const std::string text =
      ReadFile(std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json");
  const std::pair<std::string, std::string> edits[] = {
      {"\"seed\": \"", "\"seed\": \" "},
      {"\"seed\": \"", "\"seed\": \"-"},
      {"\"total_decisions\": 27", "\"total_decisions\": 1e30"},
      // 2^32 + 2: an int cast would read it as schema 2.
      {"\"schema_version\": 2", "\"schema_version\": 4294967298"},
      // A decision outcome is one of the five StepOutcomes; a uint8_t
      // cast would read 256 as 0.
      {"\"out\": 0", "\"out\": 256"},
      {"\"out\": 0", "\"out\": 5"},
  };
  for (const auto& [from, to] : edits) {
    std::string edited = text;
    const size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    edited.replace(at, from.size(), to);
    const std::string path = TempPath("malformed_integer.json");
    std::ofstream(path, std::ios::binary) << edited;
    auto bundle = obs::replay::LoadBundleJson(path);
    ASSERT_FALSE(bundle.ok()) << to;
    EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument)
        << to << ": " << bundle.status();
  }
}

// A schema-1 bundle was captured under other random draws: replayed,
// it would report a divergence that is not one. LoadBundleJson refuses
// it with InvalidArgument naming both versions, so flower-replay exits 1
// rather than 2.
TEST(ReplayTest, OlderSchemaBundleIsRejected) {
  std::string text =
      ReadFile(std::string(FLOWER_REPLAY_TESTDATA) + "/t0000.json");
  const std::string from = "\"schema_version\": 2,";
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"schema_version\": 1,");
  const std::string path = TempPath("older_schema.json");
  std::ofstream(path, std::ios::binary) << text;
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bundle.status().message().find("v1"), std::string::npos)
      << bundle.status();
  EXPECT_NE(bundle.status().message().find("v2"), std::string::npos)
      << bundle.status();
}

// --- Satellite: fleet period report JSONL export. ------------------

TEST(FleetReportExportTest, JsonlHasOneRowPerTenantPeriod) {
  fleet::FleetConfig config;
  fleet::FleetManager manager(config);
  for (fleet::TenantConfig& t : fleet::MakeTenantFleet(3, 5)) {
    ASSERT_TRUE(manager.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(manager.Start().ok());
  ASSERT_TRUE(manager.RunFor(2700.0).ok());  // 3 periods.
  std::string path = TempPath("fleet_report.jsonl");
  ASSERT_TRUE(manager.ExportReportsJsonl(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t rows = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"tenant\":"), std::string::npos);
    EXPECT_NE(line.find("\"demand_usd\":"), std::string::npos);
    EXPECT_NE(line.find("\"grant_usd\":"), std::string::npos);
    EXPECT_NE(line.find("\"spend_usd\":"), std::string::npos);
    EXPECT_NE(line.find("\"steps\":"), std::string::npos);
    EXPECT_NE(line.find("\"conservation_ok\":true"), std::string::npos);
    ++rows;
  }
  EXPECT_EQ(rows, 3u * 3u);  // periods x tenants.
}

}  // namespace
}  // namespace flower
