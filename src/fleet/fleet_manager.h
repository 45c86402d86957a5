#ifndef FLOWER_FLEET_FLEET_MANAGER_H_
#define FLOWER_FLEET_FLEET_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "fleet/budget_arbiter.h"
#include "fleet/flow_partition.h"
#include "fleet/tenant.h"

namespace flower::fleet {

/// Fleet-wide settings.
struct FleetConfig {
  /// The global hourly dollar budget the arbiter divides across
  /// tenants every arbitration period.
  double fleet_budget_usd_per_hour = 100.0;
  double arbitration_period_sec = 900.0;
  double starvation_floor_frac = 0.05;
  /// Worker threads advancing partitions (ThreadPool semantics: counts
  /// the calling thread; 1 = fully inline; at most
  /// exec::kMaxThreads). The merged result is identical at any value —
  /// that is the fleet determinism contract.
  size_t num_threads = 1;
  /// Fleet -> flow NSGA-II settings. Default is a small fleet-tuned
  /// solver: the split problem is smooth and low-dimensional, so a few
  /// hundred evaluations per period suffice.
  opt::Nsga2Config arbiter_solver = [] {
    opt::Nsga2Config c;
    c.population_size = 32;
    c.generations = 16;
    return c;
  }();
  /// Shared partition shaping (cadence, telemetry caps, flow solver,
  /// flight-recorder capture).
  PartitionConfig partition;
};

/// What a fleet runs from `config`, for FleetManager and any harness
/// that drives partitions and the arbiter itself: partitions re-plan
/// on the fleet's arbitration period; the arbiter solves on one thread.
PartitionConfig PartitionConfigFor(const FleetConfig& config);
ArbiterConfig ArbiterConfigFor(const FleetConfig& config);

/// Schedule-level counters of the fleet sweep, accumulated across
/// RunFor calls. Everything here describes the *execution schedule*
/// (stealing, parking, overlap) — none of it feeds ControlDigest() or
/// reports(), which is what lets the numbers vary freely with thread
/// count while the results do not.
struct FleetSweepStats {
  uint64_t tasks_executed = 0;  ///< Partition-segment tasks run.
  uint64_t steals = 0;          ///< Tasks claimed cross-worker.
  /// Partitions parked awaiting their boundary's arbitration.
  uint64_t mailbox_waits = 0;
  uint64_t arbitration_events = 0;
  /// Windows where the sum of simultaneously-active grants exceeded
  /// the fleet budget (must stay 0).
  uint64_t conservation_violations = 0;
  double busy_sec = 0.0;  ///< Wall time inside partition tasks, summed.
  double wall_sec = 0.0;  ///< Wall time of the sweeps themselves.
  /// busy/wall: ~1 on one thread, approaches the thread count when
  /// heterogeneous horizons overlap well.
  double overlap_ratio() const {
    return wall_sec > 0.0 ? busy_sec / wall_sec : 0.0;
  }
};

/// Per-tenant outcome of one arbitration period.
struct TenantPeriodOutcome {
  std::string tenant;
  double demand_usd = 0.0;  ///< Demand the arbitration ran on.
  double grant_usd = 0.0;   ///< Budget granted for the period.
  double spend_usd = 0.0;   ///< Applied-actuation cost at period end.
  uint64_t steps = 0;       ///< Control steps taken during the period.
};

/// One arbitration period's merged fleet view, rows in tenant index
/// order (deterministic).
struct FleetPeriodReport {
  SimTime start = 0.0;
  SimTime end = 0.0;
  std::vector<TenantPeriodOutcome> tenants;
  double total_granted_usd = 0.0;
  /// Sum of grants <= fleet budget (must hold every period).
  bool conservation_ok = false;
  /// True when total demand fit the budget and no solver ran.
  bool uncontended = false;
};

/// Runs a fleet of independent tenant flows: one simulation partition
/// per tenant advanced in parallel over a ThreadPool, with a global
/// BudgetArbiter re-dividing the fleet budget at every period boundary
/// (the fleet -> flow level of the hierarchical planner; each flow then
/// re-plans its layers under the grant it received).
///
/// The sweep is work-stealing: each partition advances independently
/// to its *own* next arbitration boundary, writes its demand into its
/// window there, and parks until the boundary's arbitration event fires
/// (all tenants sharing that boundary have arrived) and writes its
/// grant. Arbitration order is a pure function of (virtual time,
/// tenant index) and partitions share nothing, so the merged reports —
/// and every partition's decision log — are byte-identical at any
/// thread count.
class FleetManager {
 public:
  explicit FleetManager(FleetConfig config);

  /// Registers a tenant. Errors: ValidateTenant rejects it under the
  /// fleet's partition config, a duplicate id, or called after Start.
  Status AddTenant(TenantConfig tenant);

  /// Builds every partition (serially, in tenant index order — RNG
  /// streams and bundle identities depend only on the index). Errors, all
  /// before any partition is built: no tenants, a fleet budget not
  /// finite and >= 0, a starvation floor outside [0, 1], a fleet period
  /// not above the re-plan offset, num_threads above exec::kMaxThreads.
  Status Start();

  /// Advances the whole fleet by `horizon_sec`, boundary by boundary,
  /// appending to reports(). Callable repeatedly; every call arbitrates
  /// once at its start (all tenants share the start boundary). Errors:
  /// not started, a horizon not finite and >= 0.
  Status RunFor(double horizon_sec);

  /// Cumulative sweep schedule counters (see FleetSweepStats).
  FleetSweepStats sweep_stats() const { return stats_; }

  size_t num_tenants() const { return partitions_.size(); }
  SimTime Now() const { return now_; }
  /// Every window so far, the one record of each arbitration split.
  const std::vector<FleetPeriodReport>& reports() const { return reports_; }

  /// Canonical fleet control digest: every arbitration split, formatted
  /// from reports() on each call, plus every partition's retained
  /// decision records, in a fixed order and format. Byte-identical
  /// digests across thread counts are the determinism verdict.
  std::string ControlDigest() const;

  /// Partition access for tests (index order = AddTenant order).
  FlowPartition* partition(size_t i) { return partitions_[i].get(); }

  /// Dumps tenant `index`'s capture bundle to `path` (explicit trigger;
  /// see FlowPartition::DumpBundle). Errors: bad index, capture off.
  Status DumpBundle(size_t index, const std::string& path);

  /// Every bundle file written so far across the fleet (alert-edge
  /// auto-dumps and explicit dumps), tenant index order.
  std::vector<std::string> CapturedBundles() const;

  /// Writes reports() as JSONL: one row per (period, tenant) with
  /// demand/grant/spend/steps plus the period's conservation flag —
  /// fleet runs become analyzable offline. Stable field order.
  Status ExportReportsJsonl(const std::string& path) const;

 private:
  struct SweepEngine;  // Work-stealing event engine (fleet_manager.cpp).

  FleetConfig config_;
  std::vector<TenantConfig> tenants_;
  std::vector<std::unique_ptr<FlowPartition>> partitions_;
  std::unique_ptr<BudgetArbiter> arbiter_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::vector<FleetPeriodReport> reports_;
  FleetSweepStats stats_;
  SimTime now_ = 0.0;
  bool started_ = false;
};

}  // namespace flower::fleet

#endif  // FLOWER_FLEET_FLEET_MANAGER_H_
