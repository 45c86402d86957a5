#ifndef FLOWER_FLEET_TENANT_H_
#define FLOWER_FLEET_TENANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/replay/flight_recorder.h"

namespace flower::fleet {

struct PartitionConfig;

/// One scheduled fault on a tenant's flow, as plain data (the kind
/// strings are sim::FaultKindToString names, e.g. "sensor-spike"). The
/// partition builds a seeded sim::FaultInjector from these, and the
/// flight recorder captures them verbatim so a replay re-injects the
/// identical schedule.
using TenantFault = obs::replay::RecordedFault;

/// Arrival-pattern family of one tenant's click traffic. Kept as a
/// small enum (instead of a shared_ptr<ArrivalProcess>) so a fleet of
/// thousands of tenants is describable as plain data and every
/// partition can build its own process instance locally.
enum class ArrivalPattern {
  kConstant,    ///< Flat base_rate_per_sec.
  kDiurnal,     ///< base + amplitude * sin(2*pi*(t+phase)/period).
  kFlashCrowd,  ///< base plus a surge of `amplitude` starting at phase.
  kMmpp,        ///< Two-state Markov-modulated (low=base, high=base+amp).
};

const char* ArrivalPatternToString(ArrivalPattern pattern);

/// Inverse of ArrivalPatternToString; false when `name` is unknown.
bool ArrivalPatternFromString(const std::string& name,
                              ArrivalPattern* pattern);

/// Everything the fleet needs to instantiate one tenant's managed flow:
/// identity, money, traffic shape, and topology scale. Heterogeneous
/// fleets are vectors of these; `MakeTenantFleet` synthesizes a varied
/// fleet deterministically from a seed.
struct TenantConfig {
  /// Unique tenant id; used as the metrics {"tenant", id} label, the
  /// ScopedRegistry child name (no '/'), and the trace scope.
  std::string id = "tenant-0";
  /// Seeds the tenant's workload generator and controller jitter.
  uint64_t seed = 42;

  /// Budget the tenant starts with before the first arbitration, and
  /// its weight in the arbiter's split (higher weight = larger slice of
  /// the surplus beyond the starvation floor).
  double initial_budget_usd = 5.0;
  double budget_weight = 1.0;

  /// Traffic shape.
  ArrivalPattern pattern = ArrivalPattern::kConstant;
  double base_rate_per_sec = 10.0;
  double amplitude_per_sec = 0.0;   ///< Diurnal/flash/MMPP swing.
  double period_sec = 3600.0;       ///< Diurnal period / MMPP holding.
  double phase_sec = 0.0;           ///< Diurnal phase / flash start.

  /// Topology scale (initial and max resources per layer).
  int initial_shards = 1;
  int max_shards = 50;
  int initial_workers = 2;
  int max_workers = 50;
  double initial_wcu = 5.0;
  double max_wcu = 2000.0;

  /// Control knobs.
  double reference_utilization_pct = 60.0;
  double monitoring_period_sec = 120.0;

  /// Tenant-local arbitration cadence. 0 (the default) inherits the
  /// fleet-wide `FleetConfig::arbitration_period_sec`, which keeps
  /// existing fleets byte-identical; a positive value gives this tenant
  /// its own boundary lattice {k * period}, letting streaming tenants
  /// arbitrate faster than batch tenants sharing the same budget.
  double arbitration_period_sec = 0.0;

  /// Fault schedule injected into this tenant's partition (empty =
  /// fair weather). Targets are layer names; seeding uses `seed`.
  std::vector<TenantFault> faults;
};

/// InvalidArgument unless a partition built under `config` can run
/// `tenant`: an id without '/', finite values, rates, budget and weight
/// >= 0, a diurnal/MMPP period > 0, 1 <= initial <= max shards and
/// workers, 0 < initial_wcu <= max_wcu with max_wcu >= 5 (the storage
/// floor), a reference in (0, 100), a monitoring period >= 1 s
/// (CloudWatch's finest) and an arbitration period above the re-plan
/// offset, so each re-plan lands in the window its grant opened. Of
/// `config` (what a capture bundle carries): emit, Storm tick and
/// health evaluation periods finite and >= 1 s, a finite horizon > 0,
/// flow-solver population/generations, recorder capacities and
/// checkpoint_every at most 64x the fleet default, and
/// flow_solver_threads at most exec::kMaxThreads.
Status ValidateTenant(const TenantConfig& tenant,
                      const PartitionConfig& config);

/// Deterministically synthesizes `count` heterogeneous tenants: ids
/// "t0000".."tNNNN", budgets/weights/rates/patterns/topologies varied
/// by cheap per-index mixing of `seed` (no RNG state, so the same
/// (count, seed) always yields the same fleet — the bench's 1/4/16
/// thread runs must build identical fleets).
std::vector<TenantConfig> MakeTenantFleet(size_t count, uint64_t seed);

/// Spreads heterogeneous arbitration horizons over an existing fleet:
/// tenant i gets `base_period_sec / d` where the divisor d is drawn
/// deterministically from {1, 2, 3, 4} by mixing `seed` with i. Using
/// exact divisors keeps shared boundaries exact in double arithmetic
/// (k * (P/d) sums to the same bits as the fleet boundary), so tenants
/// with different cadences still group at common multiples. Divisor 1
/// tenants keep the fleet cadence.
void ApplyPeriodJitter(std::vector<TenantConfig>* tenants,
                       double base_period_sec, uint64_t seed);

}  // namespace flower::fleet

#endif  // FLOWER_FLEET_TENANT_H_
