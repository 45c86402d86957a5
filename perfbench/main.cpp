// flowerbench: the repo benchmark's measuring binary. run.py builds it and
// calls it once per fresh process:
//
//   flowerbench fingerprint
//   flowerbench fleet  --workload <name> --seed <n>
//   flowerbench traced --workload <name> --seed <n>
//
// Each mode prints one JSON object on its last stdout line. `fleet` is
// one untraced run of the workload through fleet::FleetManager (every
// end-to-end metric comes from it); `traced` re-drives the workload at
// one thread with spans around public calls and prints the per-layer
// metrics, after checking that the traced sweep reproduced the
// untraced run exactly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "fleet_runs.h"
#include "layer_replay.h"
#include "probes.h"

namespace flowerbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Cap on tenants the re-plan probe drives (each call is one NSGA-II
/// solve or a cache hit).
constexpr size_t kReplanProbeTenants = 200;

int Fingerprint() {
  JsonOut out;
  out.Int("hardware_threads", std::thread::hardware_concurrency());
  out.Str("build_type", FLOWERBENCH_BUILD_TYPE);
  out.Str("cxx_flags", FLOWERBENCH_CXX_FLAGS);
  out.Str("compiler", __VERSION__);
  out.Bool("optimized", kOptimized);
  out.Bool("sanitizer", kSanitized);
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) == 3) out.Num("loadavg_1m", load[0]);
  std::printf("%s\n", out.Finish().c_str());
  return kOptimized && !kSanitized ? 0 : 3;
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

int Fleet(const WorkloadSpec& w, uint64_t seed) {
  FleetRunResult r = RunFleetManager(w, seed, w.threads, false);
  JsonOut out;
  out.Bool("ok", r.status.ok() && r.checks.first_failure.empty());
  out.Str("error", !r.status.ok() ? r.status.ToString()
                                  : r.checks.first_failure);
  out.Num("setup_s", r.setup_s);
  out.Num("runfor_s", r.runfor_s);
  out.Num("flow_sim_sec_per_wall_sec", r.flow_sim_sec_per_wall_sec);
  out.Num("peak_rss_mib", r.peak_rss_kib / 1024.0);
  double tenant_hours = static_cast<double>(w.tenants) * w.measure_sec / 3600.0;
  out.Num("rss_kib_per_tenant_hour",
          (r.rss_end_kib - r.rss_checkpoint_kib) / tenant_hours);
  out.Int("rows", r.checks.rows);
  out.Int("failed_rows", r.status.ok() ? r.checks.failed_rows : 0);
  out.Int("windows", r.checks.windows);
  out.Int("contended_windows", r.checks.contended_windows);
  out.Str("digest", r.digest_hash);
  out.Int("tasks", r.sweep.tasks_executed);
  out.Int("steals", r.sweep.steals);
  out.Int("mailbox_waits", r.sweep.mailbox_waits);
  out.Num("overlap_ratio", r.sweep.overlap_ratio());
  out.Num("idle_share",
          1.0 - Share(r.sweep.busy_sec,
                      static_cast<double>(w.threads) * r.sweep.wall_sec));
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

int Traced(const WorkloadSpec& w, uint64_t seed) {
  JsonOut out;
  // The untraced 1-thread reference, the traced sweep of the same
  // fleet, and the reference again: the first run of a process pays
  // for growing the heap, so the untraced throughput is the mean of
  // the runs on either side of the traced one.
  FleetRunResult ref = RunFleetManager(w, seed, 1, true);
  TracedSweepResult tr = RunTracedSweep(w, seed);
  FleetRunResult ref_after = RunFleetManager(w, seed, 1, false);
  double untraced_tp = 0.5 * (ref.flow_sim_sec_per_wall_sec +
                              ref_after.flow_sim_sec_per_wall_sec);
  std::string fidelity;
  if (!ref.status.ok()) fidelity = "reference: " + ref.status.ToString();
  if (fidelity.empty() && !tr.status.ok()) {
    fidelity = "traced sweep: " + tr.status.ToString();
  }
  if (fidelity.empty()) fidelity = CompareFidelity(ref, tr);
  LayerReplayResult lr = RunLayerReplay(w, seed);
  if (fidelity.empty() && !lr.status.ok()) {
    fidelity = "layer replay: " + lr.status.ToString();
  }
  if (fidelity.empty()) fidelity = lr.fidelity_error;
  out.Bool("ok", fidelity.empty() && ref.checks.first_failure.empty());
  out.Str("error", fidelity.empty() ? ref.checks.first_failure : fidelity);
  out.Str("digest", ref.digest_hash);
  out.Int("rows", ref.checks.rows);
  out.Int("failed_rows", ref.checks.failed_rows);

  // fleet: spans around the sweep's public calls.
  out.Num("fleet.create_s", tr.create_s);
  out.Num("fleet.advance_s", tr.advance_s);
  out.Num("control.step_s", tr.control_s);
  out.Num("core.replan_s", tr.replan_s);
  out.Num("flow.services_s", tr.services_s);
  PutSummary(&out, "fleet.demand_ms", Summarize(tr.demand_s), 1e3);
  PutSummary(&out, "fleet.arbitrate_ms", Summarize(tr.arbitrate_s), 1e3);
  out.Int("fleet.arbitrate_calls", tr.arbitrate_calls);
  out.Num("fleet.contended_share",
          Share(static_cast<double>(tr.contended_calls),
                static_cast<double>(tr.arbitrate_calls)));

  // sim: the fleet's events, priced at the bare calendar's cost.
  CalendarProbe cal = ProbeCalendar(w, seed);
  out.Int("sim.events", tr.events);
  out.Num("sim.ns_per_event", cal.ns_per_event());
  out.Num("sim.calendar_s",
          cal.ns_per_event() * static_cast<double>(tr.events) * 1e-9);

  // Service layers, from the layer replay.
  out.Int("workload.records", lr.records);
  out.Num("workload.generate_s",
          std::max(0.0, lr.workload_event_s - lr.put_s));
  out.Num("kinesis.put_s", lr.put_s);
  out.Num("kinesis.get_s", lr.get_s);
  out.Num("kinesis.throttled_share",
          Share(static_cast<double>(lr.put_throttled),
                static_cast<double>(lr.records)));
  out.Int("storm.tuples", lr.tuples);
  out.Num("storm.tick_s", lr.tick_s);
  out.Num("flow.window_s", lr.window_s);
  out.Int("flow.aggregates", lr.aggregates);
  out.Int("dynamodb.writes", lr.writes);
  out.Num("dynamodb.persist_s", lr.persist_s);
  out.Num("dynamodb.throttled_share",
          Share(static_cast<double>(lr.write_throttled),
                static_cast<double>(lr.writes + lr.write_throttled)));
  out.Int("cloudwatch.datapoints", lr.datapoints);
  out.Int("cloudwatch.series", lr.series);
  out.Num("cloudwatch.put_s", lr.publish_s);
  double query_total = 0.0;
  for (double q : lr.query_s) query_total += q;
  out.Num("cloudwatch.query_s", query_total);
  PutSummary(&out, "cloudwatch.query_us", Summarize(lr.query_s), 1e6);

  // core / opt: the fleet's own planner counters, and the re-plan cost
  // of the grant sequence the fleet produced.
  uint64_t replans = ref.planner.cache_hits + ref.planner.cache_misses;
  out.Int("core.replan_calls", replans);
  out.Num("core.plan_cache_hit_share",
          Share(static_cast<double>(ref.planner.cache_hits),
                static_cast<double>(replans)));
  out.Int("opt.evaluations", ref.planner.evaluations);
  PutSummary(&out, "core.replan_ms",
             Summarize(ProbeReplan(w, seed, tr.grants, kReplanProbeTenants)),
             1e3);

  PutSummary(&out, "common.poisson_ns_1t",
             Summarize(ProbePoisson(w, seed, 1)), 1.0);
  PutSummary(&out, "common.poisson_ns_4t",
             Summarize(ProbePoisson(w, seed, 4)), 1.0);

  out.Num("trace.overhead_share",
          1.0 - Share(tr.flow_sim_sec_per_wall_sec, untraced_tp));
  out.Num("trace.unattributed_share",
          1.0 - Share(tr.control_s + tr.replan_s + tr.services_s,
                      tr.advance_s));
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: flowerbench fingerprint\n"
               "       flowerbench fleet|traced --workload <name> "
               "--seed <n>\n");
  return 2;
}

}  // namespace
}  // namespace flowerbench

int main(int argc, char** argv) {
  using namespace flowerbench;
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  if (mode == "fingerprint") return Fingerprint();
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else {
      return Usage();
    }
  }
  WorkloadSpec w;
  if (!have_seed || !FindWorkload(workload, &w)) return Usage();
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr, "flowerbench: refusing to time a %s build\n",
                 kSanitized ? "sanitizer" : "non-optimised");
    return 3;
  }
  if (mode == "fleet") return Fleet(w, seed);
  if (mode == "traced") return Traced(w, seed);
  return Usage();
}
