#include "probes.h"

#include <algorithm>
#include <thread>

#include "common/random.h"
#include "core/resource_share.h"
#include "sim/simulation.h"

namespace flowerbench {

CalendarProbe ProbeCalendar(const WorkloadSpec& w, uint64_t seed) {
  CalendarProbe out;
  flower::fleet::FleetConfig fc = MakeFleetConfig(w, 1);
  const flower::fleet::PartitionConfig& pc = fc.partition;
  for (const flower::fleet::TenantConfig& t : MakeTenants(w, seed)) {
    flower::sim::Simulation sim;
    auto every = [&sim](double start, double period) {
      (void)sim.SchedulePeriodic(start, period, [] { return true; });
    };
    double arb = t.arbitration_period_sec > 0.0 ? t.arbitration_period_sec
                                                : fc.arbitration_period_sec;
    every(pc.workload_emit_period_sec, pc.workload_emit_period_sec);
    every(0.0, pc.storm_tick_period_sec);
    for (int publisher = 0; publisher < 3; ++publisher) every(60.0, 60.0);
    for (int loop = 0; loop < 3; ++loop) {
      every(t.monitoring_period_sec, t.monitoring_period_sec);
    }
    every(pc.replan_offset_sec, arb);
    // Advance boundary by boundary, as the two RunFor calls do.
    Clock::time_point t0 = Clock::now();
    for (double b = arb; b < w.warmup_sec; b += arb) sim.RunUntil(b);
    for (double b = w.warmup_sec; b < w.horizon_sec(); b += arb) {
      sim.RunUntil(b);
    }
    sim.RunUntil(w.horizon_sec());
    out.wall_s += SecondsSince(t0);
    out.events += sim.events_executed();
  }
  return out;
}

std::vector<double> ProbePoisson(const WorkloadSpec& w, uint64_t seed,
                                 size_t threads) {
  // The mean of one generator batch for the workload's median tenant.
  double emit_period_sec =
      MakeFleetConfig(w, 1).partition.workload_emit_period_sec;
  std::vector<double> means;
  for (const flower::fleet::TenantConfig& t : MakeTenants(w, seed)) {
    means.push_back(t.base_rate_per_sec * emit_period_sec);
  }
  std::sort(means.begin(), means.end());
  double mean = means[means.size() / 2];

  constexpr size_t kBatches = 200;
  constexpr size_t kDraws = 1000;
  std::vector<std::vector<double>> samples(threads);
  std::vector<uint64_t> sinks(threads, 0);
  auto body = [&](size_t k) {
    flower::Rng rng(seed + 17 * k);
    for (size_t b = 0; b < kBatches; ++b) {
      Clock::time_point t0 = Clock::now();
      for (size_t d = 0; d < kDraws; ++d) {
        sinks[k] += static_cast<uint64_t>(rng.Poisson(mean));
      }
      samples[k].push_back(SecondsSince(t0) * 1e9 / kDraws);
    }
  };
  std::vector<std::thread> pool;
  for (size_t k = 1; k < threads; ++k) pool.emplace_back(body, k);
  body(0);
  for (std::thread& th : pool) th.join();
  std::vector<double> all;
  for (const std::vector<double>& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

std::vector<double> ProbeReplan(const WorkloadSpec& w, uint64_t seed,
                                const std::vector<std::vector<double>>& grants,
                                size_t max_tenants) {
  std::vector<double> call_s;
  flower::fleet::PartitionConfig pc = MakeFleetConfig(w, 1).partition;
  std::vector<flower::fleet::TenantConfig> tenants = MakeTenants(w, seed);
  size_t n = std::min({max_tenants, tenants.size(), grants.size()});
  for (size_t i = 0; i < n; ++i) {
    const flower::fleet::TenantConfig& t = tenants[i];
    flower::opt::Nsga2Config solver = pc.flow_solver;
    solver.num_threads = 1;
    solver.seed = t.seed;
    flower::core::ResourceShareAnalyzer analyzer(solver, pc.flow_incremental);
    flower::core::ResourceShareRequest req;
    req.bounds[0] = {1.0, static_cast<double>(t.max_shards)};
    req.bounds[1] = {1.0, static_cast<double>(t.max_workers)};
    req.bounds[2] = {5.0, t.max_wcu};
    for (double grant : grants[i]) {
      req.hourly_budget_usd = grant;
      Clock::time_point t0 = Clock::now();
      flower::Result<flower::core::ResourceShareResult> res =
          analyzer.AnalyzeIncremental(req);
      call_s.push_back(SecondsSince(t0));
      (void)res;
    }
  }
  return call_s;
}

}  // namespace flowerbench
