#include "fleet/tenant.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/random.h"
#include "common/units.h"
#include "fleet/flow_partition.h"

namespace flower::fleet {

const char* ArrivalPatternToString(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kConstant:
      return "constant";
    case ArrivalPattern::kDiurnal:
      return "diurnal";
    case ArrivalPattern::kFlashCrowd:
      return "flash-crowd";
    case ArrivalPattern::kMmpp:
      return "mmpp";
  }
  return "unknown";
}

bool ArrivalPatternFromString(const std::string& name,
                              ArrivalPattern* pattern) {
  for (ArrivalPattern p :
       {ArrivalPattern::kConstant, ArrivalPattern::kDiurnal,
        ArrivalPattern::kFlashCrowd, ArrivalPattern::kMmpp}) {
    if (name == ArrivalPatternToString(p)) {
      *pattern = p;
      return true;
    }
  }
  return false;
}

Status ValidateTenant(const TenantConfig& t, const PartitionConfig& config) {
  bool finite = true;
  for (double v : {t.initial_budget_usd, t.budget_weight, t.base_rate_per_sec,
                   t.amplitude_per_sec, t.period_sec, t.phase_sec,
                   t.initial_wcu, t.max_wcu, t.reference_utilization_pct,
                   t.monitoring_period_sec, t.arbitration_period_sec}) {
    finite = finite && std::isfinite(v);
  }
  // MmppArrival pre-samples holds with mean period_sec up to the
  // horizon, which a zero or negative period never reaches.
  const bool periodic = t.pattern == ArrivalPattern::kDiurnal ||
                        t.pattern == ArrivalPattern::kMmpp;
  const double period = t.arbitration_period_sec > 0.0
                            ? t.arbitration_period_sec
                            : config.arbitration_period_sec;
  // Partition settings a capture bundle carries. Cadences are floored
  // at 1 s (CloudWatch's finest, and the finest any caller uses): a
  // sub-second period schedules events faster than a replay can finish.
  auto cadence = [](double sec) { return sec >= 1.0 && std::isfinite(sec); };
  // Work and memory scale with these counts, so each is capped at 64x
  // the fleet default instead of letting a bundle ask for a bad_alloc
  // or a solve that never ends.
  constexpr size_t kMaxScale = 64;
  auto capped = [](size_t v, size_t fleet_default) {
    return v <= kMaxScale * fleet_default;
  };
  static const PartitionConfig kDefaults;
  const obs::replay::RecorderConfig& rec = config.capture.recorder;
  const obs::replay::RecorderConfig& rec_default = kDefaults.capture.recorder;
  const std::pair<bool, const char*> rules[] = {
      {!t.id.empty() && t.id.find('/') == std::string::npos,
       "id must be non-empty and contain no '/'"},
      {finite, "every value must be finite"},
      {t.base_rate_per_sec >= 0.0 && t.amplitude_per_sec >= 0.0,
       "rates must be >= 0"},
      {t.base_rate_per_sec + t.amplitude_per_sec <=
           kMaxOfferedRecordsPerSecPerShard * t.max_shards,
       "peak rate (base + amplitude) must be <= 10x the stream's write "
       "limit at max_shards"},
      {t.initial_budget_usd >= 0.0 && t.budget_weight >= 0.0,
       "initial_budget_usd and budget_weight must be >= 0"},
      {!periodic || t.period_sec > 0.0, "period_sec must be > 0"},
      {1 <= t.initial_shards && t.initial_shards <= t.max_shards &&
           1 <= t.initial_workers && t.initial_workers <= t.max_workers,
       "shards and workers need 1 <= initial <= max"},
      {0.0 < t.initial_wcu && t.initial_wcu <= t.max_wcu && t.max_wcu >= 5.0,
       "need 0 < initial_wcu <= max_wcu and max_wcu >= 5"},
      {t.reference_utilization_pct > 0.0 &&
           t.reference_utilization_pct < 100.0,
       "reference_utilization_pct must be in (0, 100)"},
      {t.monitoring_period_sec >= 1.0, "monitoring_period_sec must be >= 1"},
      {t.arbitration_period_sec >= 0.0 && period > config.replan_offset_sec,
       "arbitration period must be >= 0 and exceed the re-plan offset"},
      {cadence(config.workload_emit_period_sec) &&
           cadence(config.storm_tick_period_sec) &&
           cadence(config.capture.health_eval_period_sec),
       "emit, Storm tick and health evaluation periods must be finite and "
       ">= 1 s"},
      // MmppArrival pre-samples its switch schedule up to the horizon.
      {config.horizon_sec > 0.0 && std::isfinite(config.horizon_sec),
       "horizon_sec must be finite and > 0"},
      // Each re-plan evaluates population x generations candidates.
      {capped(config.flow_solver.population_size,
              kDefaults.flow_solver.population_size) &&
           capped(config.flow_solver.generations,
                  kDefaults.flow_solver.generations),
       "flow solver population and generations must be <= 64x the fleet "
       "default"},
      // The recorder preallocates every ring at construction; a wider
      // checkpoint spacing would localize a divergence no better than
      // having no checkpoints.
      {capped(rec.decision_capacity, rec_default.decision_capacity) &&
           capped(rec.grant_capacity, rec_default.grant_capacity) &&
           capped(rec.replan_capacity, rec_default.replan_capacity) &&
           capped(rec.checkpoint_capacity, rec_default.checkpoint_capacity) &&
           capped(rec.checkpoint_every, rec_default.checkpoint_every),
       "recorder capacities and checkpoint_every must be <= 64x the fleet "
       "default"},
  };
  for (const auto& [ok, what] : rules) {
    if (!ok) return Status::InvalidArgument("tenant '" + t.id + "': " + what);
  }
  return Status::OK();
}

namespace {

/// Uniform double in [0, 1) from a mixed word.
double Unit(uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

std::vector<TenantConfig> MakeTenantFleet(size_t count, uint64_t seed) {
  std::vector<TenantConfig> fleet;
  fleet.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TenantConfig t;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t%04zu", i);
    t.id = buf;
    t.seed = SplitMix64(seed ^ (0x1000 + i));

    uint64_t h = SplitMix64(seed ^ i);
    t.initial_budget_usd = 2.0 + 8.0 * Unit(SplitMix64(h ^ 1));
    t.budget_weight = 0.5 + 1.5 * Unit(SplitMix64(h ^ 2));

    t.pattern = static_cast<ArrivalPattern>(SplitMix64(h ^ 3) % 4);
    t.base_rate_per_sec = 5.0 + 15.0 * Unit(SplitMix64(h ^ 4));
    t.amplitude_per_sec =
        t.base_rate_per_sec * (0.3 + 0.5 * Unit(SplitMix64(h ^ 5)));
    t.period_sec = 1800.0 + 3600.0 * Unit(SplitMix64(h ^ 6));
    t.phase_sec = t.period_sec * Unit(SplitMix64(h ^ 7));

    t.initial_shards = 1 + static_cast<int>(SplitMix64(h ^ 8) % 3);
    t.max_shards = 20 + static_cast<int>(SplitMix64(h ^ 9) % 40);
    t.initial_workers = 2 + static_cast<int>(SplitMix64(h ^ 10) % 3);
    t.max_workers = 20 + static_cast<int>(SplitMix64(h ^ 11) % 40);
    t.initial_wcu = 5.0 + 10.0 * Unit(SplitMix64(h ^ 12));
    t.max_wcu = 1000.0 + 2000.0 * Unit(SplitMix64(h ^ 13));

    t.reference_utilization_pct = 50.0 + 20.0 * Unit(SplitMix64(h ^ 14));
    fleet.push_back(std::move(t));
  }
  return fleet;
}

void ApplyPeriodJitter(std::vector<TenantConfig>* tenants,
                       double base_period_sec, uint64_t seed) {
  // Divisors rather than arbitrary scales: when base/d divides exactly
  // in double arithmetic (true for the bench's 900 s fleet period and
  // every d below), tenant boundaries k*(base/d) land bit-exactly on
  // the shared lattice, so co-periodic tenants group at identical
  // virtual times instead of epsilon-apart ones.
  static constexpr int kDivisors[] = {1, 2, 3, 4};
  for (size_t i = 0; i < tenants->size(); ++i) {
    int d = kDivisors[SplitMix64(seed ^ (0x7e57 + i)) % 4];
    (*tenants)[i].arbitration_period_sec =
        base_period_sec / static_cast<double>(d);
  }
}

}  // namespace flower::fleet
