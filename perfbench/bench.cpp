#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace flowerbench {

namespace {

// Workload definitions. Sizes are fixed here and documented in
// perfbench/README.md; only --seed varies between runs.
std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec dense;
  dense.name = "fleet-dense-1t";
  dense.tenants = 1000;
  dense.rate_scale = 1.0;
  dense.threads = 1;
  dense.budget_usd_per_tenant_hour = 0.05;
  dense.warmup_sec = 300.0;
  dense.measure_sec = 300.0;
  dense.replay_tenants = 8;
  dense.replay_horizon_sec = 1800.0;
  out.push_back(dense);

  WorkloadSpec sparse;
  sparse.name = "fleet-sparse-4t";
  sparse.tenants = 1000;
  sparse.rate_scale = 1.0 / 20.0;
  sparse.period_jitter = true;
  sparse.threads = 4;
  sparse.budget_usd_per_tenant_hour = 0.005;
  sparse.warmup_sec = 900.0;
  sparse.measure_sec = 2700.0;
  sparse.replay_tenants = 16;
  sparse.replay_horizon_sec = 3600.0;
  out.push_back(sparse);

  WorkloadSpec soak;
  soak.name = "fleet-soak-1t";
  soak.tenants = 16;
  soak.rate_scale = 1.0;
  soak.threads = 1;
  soak.budget_usd_per_tenant_hour = 0.01;
  soak.warmup_sec = 2.0 * 3600.0;
  soak.measure_sec = 10.0 * 3600.0;
  soak.replay_tenants = 2;
  soak.replay_horizon_sec = 12.0 * 3600.0;
  out.push_back(soak);
  return out;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<flower::fleet::TenantConfig> MakeTenants(const WorkloadSpec& w,
                                                     uint64_t seed) {
  std::vector<flower::fleet::TenantConfig> tenants =
      flower::fleet::MakeTenantFleet(w.tenants, seed);
  // Pin the fleet's mean base rate at MakeTenantFleet's expected 12.5
  // clicks/s (× rate_scale): tenants stay heterogeneous, but every seed
  // offers the same aggregate load, so small fleets do not swing
  // throughput with the seed.
  double mean_rate = 0.0;
  for (const flower::fleet::TenantConfig& t : tenants) {
    mean_rate += t.base_rate_per_sec / static_cast<double>(tenants.size());
  }
  double scale = w.rate_scale * 12.5 / mean_rate;
  for (flower::fleet::TenantConfig& t : tenants) {
    t.base_rate_per_sec *= scale;
    t.amplitude_per_sec *= scale;
  }
  if (w.period_jitter) {
    flower::fleet::ApplyPeriodJitter(&tenants, 900.0, seed ^ 0x5eedULL);
  }
  return tenants;
}

flower::fleet::FleetConfig MakeFleetConfig(const WorkloadSpec& w,
                                           size_t threads) {
  flower::fleet::FleetConfig c;
  c.fleet_budget_usd_per_hour =
      w.budget_usd_per_tenant_hour * static_cast<double>(w.tenants);
  c.arbitration_period_sec = 900.0;
  c.num_threads = threads;
  c.partition.horizon_sec = w.horizon_sec();
  return c;
}

uint64_t ExpectedSteps(const flower::fleet::TenantConfig& t, double t_end) {
  double per_loop = std::floor(t_end / t.monitoring_period_sec);
  return 3 * static_cast<uint64_t>(std::max(0.0, per_loop));
}

std::string HashHex(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double CurrentRssKib() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double PeakRssKib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux.
}

void JsonOut::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

void JsonOut::Num(const std::string& key, double v) {
  Key(key);
  if (!std::isfinite(v)) {
    body_ += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  body_ += buf;
}

void JsonOut::Int(const std::string& key, uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
}

void JsonOut::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' ? ' ' : c);
  }
  body_ += "\"";
}

void JsonOut::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  // Highest of p99.9 / p99 / p90 / p50 with >= 10 samples beyond it;
  // the maximum when there are fewer than 20 samples.
  for (double pct : {99.9, 99.0, 90.0, 50.0}) {
    double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
    if (beyond >= 10.0) {
      size_t idx = static_cast<size_t>(
          std::ceil(static_cast<double>(n) * pct / 100.0)) - 1;
      s.tail = samples[std::min(idx, n - 1)];
      return s;
    }
  }
  s.tail = samples.back();
  return s;
}

void PutSummary(JsonOut* out, const std::string& key, const Summary& s,
                double scale) {
  out->Num(key, s.median * scale);
  out->Num(key + "_tail", s.tail * scale);
  out->Int(key + "_n", s.count);
}

}  // namespace flowerbench
