// Shared pieces of the repo benchmark binary: workload definitions,
// seeded tenant generation, wall-clock helpers and a flat JSON writer.
#ifndef FLOWERBENCH_BENCH_H_
#define FLOWERBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_manager.h"

namespace flowerbench {

/// One named workload: a fixed batch of simulated fleet work. Every
/// field is part of the workload's definition; only the seed varies
/// between runs.
struct WorkloadSpec {
  std::string name;
  size_t tenants = 0;
  /// Multiplier on MakeTenantFleet's generated click rates.
  double rate_scale = 1.0;
  /// Spread tenant arbitration horizons over base/{1,2,3,4}.
  bool period_jitter = false;
  size_t threads = 1;
  /// Fleet budget per tenant ($/h); below aggregate demand on every
  /// workload, so arbitration boundaries are contended.
  double budget_usd_per_tenant_hour = 0.0;
  /// RunFor(warmup_sec) then RunFor(measure_sec); the RSS checkpoint
  /// sits between the two calls.
  double warmup_sec = 0.0;
  double measure_sec = 0.0;
  /// Layer replay shape (traced run): how many of the workload's
  /// tenants are replayed as composed pipelines, and for how long.
  size_t replay_tenants = 0;
  double replay_horizon_sec = 0.0;

  double horizon_sec() const { return warmup_sec + measure_sec; }
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

/// The workload's tenant fleet for `seed`: MakeTenantFleet, then rate
/// scaling, then (when the workload asks for it) period jitter.
std::vector<flower::fleet::TenantConfig> MakeTenants(const WorkloadSpec& w,
                                                     uint64_t seed);

/// FleetConfig shared by the untraced and traced runs of `w`.
flower::fleet::FleetConfig MakeFleetConfig(const WorkloadSpec& w,
                                           size_t threads);

/// Control steps a tenant's three loops take by simulated time `t`
/// (every loop fires at k * monitoring period, k >= 1).
uint64_t ExpectedSteps(const flower::fleet::TenantConfig& t, double t_end);

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a 64-bit hash, printed as hex.
std::string HashHex(const std::string& s);

/// Resident set size now / process high-water mark, in KiB.
double CurrentRssKib();
double PeakRssKib();

/// Flat JSON object writer: numbers, strings and booleans in insertion
/// order, one line.
class JsonOut {
 public:
  void Num(const std::string& key, double v);
  void Int(const std::string& key, uint64_t v);
  void Str(const std::string& key, const std::string& v);
  void Bool(const std::string& key, bool v);
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Sorted-sample summary: median and the highest percentile with at
/// least ten samples beyond it (p90 from 100 samples, p99 from 1000).
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  size_t count = 0;
};
Summary Summarize(std::vector<double> samples);
/// Writes `<key>` (median), `<key>_tail` and `<key>_n`, values × scale.
void PutSummary(JsonOut* out, const std::string& key, const Summary& s,
                double scale);

}  // namespace flowerbench

#endif  // FLOWERBENCH_BENCH_H_
