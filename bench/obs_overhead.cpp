// Observability-plane overhead bench: proves the causal-span /
// tracked-snapshot machinery is free when off and cheap when on. Four
// parts:
//
//   baseline    in-process regeneration of the BENCH_simcore single-
//               flow measurement (unmanaged analytics flow, events/s).
//               Regenerated rather than read from the committed JSON so
//               the comparison is apples-to-apples on this machine.
//   disabled    the same flow with the full obs plane constructed and
//               in the event path — telemetry hub, tracked snapshot
//               ticking at 1 Hz, span collector called every tick — but
//               spans DISABLED. Gates: events/s within 1% of baseline,
//               zero heap allocations per steady tick.
//   enabled     a managed flow (three control loops) with spans off vs
//               on; gates the events/s overhead of recording at <= 5%.
//               Plus a tight-loop microbench of SpanCollector::Emit,
//               gated at >= 1M spans/s.
//   determinism the managed flow + NSGA-II re-planning at 1 / 4 / 16
//               solver threads with spans on; the decision JSONL and the
//               exported span JSON must be byte-identical across thread
//               counts (span ids are sequential sim-thread state, so
//               any nondeterminism shows up as a byte diff).
//
// Results land in a JSON file (default BENCH_obs.json). --smoke
// shrinks the workloads, skips the gates, and always exits 0.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/flow_builder.h"
#include "flow/flow.h"
#include "obs/exporters.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/tracked_snapshot.h"
#include "sim/simulation.h"
#include "tools/flag_parser.h"
#include "workload/arrival.h"

// Allocation-counting hook (same pattern as sim_throughput): global
// operator new bumps a relaxed counter so the steady-tick guard can
// count heap traffic inside RunUntil windows.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace flower {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------
// Part A/B: the unmanaged single flow from sim_throughput, bare and
// with the obs plane attached-but-disabled.

struct FlowRun {
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
};

FlowRun RunBareFlow(double sim_seconds) {
  sim::Simulation sim;
  auto f = flow::DataAnalyticsFlow::Create(&sim, nullptr,
                                           bench::CanonicalFlow());
  FLOWER_CHECK(f.ok()) << f.status().ToString();
  Status st = (*f)->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(300.0),
      bench::CanonicalWorkload(), /*seed=*/7);
  FLOWER_CHECK(st.ok()) << st.ToString();
  auto t0 = std::chrono::steady_clock::now();
  sim.RunUntil(sim_seconds);
  FlowRun out;
  out.wall_ms = MsSince(t0);
  double sec = out.wall_ms / 1000.0;
  if (sec > 0.0) {
    out.events_per_sec = static_cast<double>(sim.events_executed()) / sec;
  }
  return out;
}

/// The obs plane a fleet deployment would attach per flow: a telemetry
/// hub, a tracked snapshot sampling a few series at 1 Hz, and the span
/// collector sitting disabled in the per-tick path. The instruments are
/// fed from the periodic callback so the snapshot has real values to
/// copy — the point is that none of this perturbs the simulation it
/// rides on.
struct DisabledObsPlane {
  obs::Telemetry telemetry;
  obs::TrackedSnapshot tracked{&telemetry.metrics()};
  obs::Counter* ticks = nullptr;
  obs::Gauge* depth = nullptr;
  obs::Histogram* latency = nullptr;
  uint64_t n = 0;

  DisabledObsPlane() {
    ticks = telemetry.metrics().GetCounter("plane.ticks");
    depth = telemetry.metrics().GetGauge("plane.depth");
    latency = telemetry.metrics().GetHistogram("plane.latency");
    tracked.TrackCounter("plane.ticks");
    tracked.TrackGauge("plane.depth");
    tracked.TrackHistogram("plane.latency");
  }

  void Tick(SimTime now) {
    ++n;
    ticks->Increment();
    depth->Set(static_cast<double>(n % 100));
    latency->Record(0.001 * static_cast<double>(n % 250));
    // The disabled span path: one branch, returns 0.
    obs::SpanId id = telemetry.spans().Begin(
        obs::SpanKind::kSense, "bench", now, obs::kTracePid, 0);
    telemetry.spans().End(id, now);
    tracked.Tick();
  }
};

struct DisabledRun {
  FlowRun run;
  uint64_t steady_ticks = 0;
  uint64_t steady_allocations = 0;
};

DisabledRun RunDisabledFlow(double sim_seconds) {
  sim::Simulation sim;
  auto f = flow::DataAnalyticsFlow::Create(&sim, nullptr,
                                           bench::CanonicalFlow());
  FLOWER_CHECK(f.ok()) << f.status().ToString();
  Status st = (*f)->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(300.0),
      bench::CanonicalWorkload(), /*seed=*/7);
  FLOWER_CHECK(st.ok()) << st.ToString();
  DisabledObsPlane plane;
  (void)sim.SchedulePeriodic(1.0, 1.0, [&plane, &sim] {
    plane.Tick(sim.Now());
    return true;
  });
  auto t0 = std::chrono::steady_clock::now();
  sim.RunUntil(sim_seconds);
  DisabledRun out;
  out.run.wall_ms = MsSince(t0);
  double sec = out.run.wall_ms / 1000.0;
  if (sec > 0.0) {
    out.run.events_per_sec =
        static_cast<double>(sim.events_executed()) / sec;
  }
  // Steady-tick allocation window, mirroring sim_throughput: warmed
  // past the wheel rotation and the window-ring rotation, measured
  // between slide boundaries. The tracked snapshot's buffers are warm
  // after the first tick, so any per-tick heap traffic from the obs
  // plane lands in this window.
  sim.RunUntil(std::max(sim_seconds, 103.0));
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim.RunUntil(std::max(sim_seconds, 103.0) + 6.0);
  out.steady_allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  out.steady_ticks = 6;
  return out;
}

// ---------------------------------------------------------------------
// Part C: managed flow, spans off vs on; plus the Emit microbench.

struct ManagedRun {
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  uint64_t spans_recorded = 0;
  std::string decisions_jsonl;
  std::string spans_json;
};

ManagedRun RunManagedFlow(double sim_seconds, bool spans_enabled,
                          size_t planner_threads, bool with_replanning,
                          bool serialize) {
  obs::Telemetry telemetry;
  if (spans_enabled) telemetry.spans().set_enabled(true);
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto managed =
      core::FlowBuilder()
          .WithWorkload(std::make_shared<workload::DiurnalArrival>(
              800.0, 600.0, 2.0 * kHour))
          .WithSeed(7)
          .WithTelemetry(&telemetry)
          .Build(&sim, &metrics);
  FLOWER_CHECK(managed.ok()) << managed.status().ToString();
  if (with_replanning) {
    core::ReplanConfig rc;
    rc.solver.population_size = 32;
    rc.solver.generations = 16;
    rc.solver.seed = 11;
    rc.solver.num_threads = planner_threads;
    rc.solver.on_generation =
        obs::MakeNsga2Observer(&telemetry, "replanner", /*anchor=*/0.0);
    rc.period_sec = 600.0;
    rc.start_delay_sec = 60.0;
    Status st = managed->manager->EnableReplanning(rc);
    FLOWER_CHECK(st.ok()) << st.ToString();
  }
  auto t0 = std::chrono::steady_clock::now();
  sim.RunUntil(sim_seconds);
  ManagedRun out;
  out.wall_ms = MsSince(t0);
  double sec = out.wall_ms / 1000.0;
  if (sec > 0.0) {
    out.events_per_sec = static_cast<double>(sim.events_executed()) / sec;
  }
  out.spans_recorded = telemetry.spans().total_started();
  if (serialize) {
    std::ostringstream decisions;
    obs::WriteDecisionJsonl(decisions, telemetry.decisions());
    out.decisions_jsonl = decisions.str();
    std::ostringstream spans;
    obs::WriteChromeTrace(spans, telemetry.spans(), telemetry.decisions());
    out.spans_json = spans.str();
  }
  return out;
}

struct SpanRate {
  double emit_per_sec = 0.0;      ///< Enabled Begin+End pairs.
  double disabled_per_sec = 0.0;  ///< Disabled calls (the off branch).
};

SpanRate MeasureSpanRate(uint64_t n) {
  SpanRate out;
  {
    obs::SpanCollector spans(1 << 16);
    spans.set_enabled(true);
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < n; ++i) {
      obs::SpanId id =
          spans.Begin(obs::SpanKind::kSense, "loop",
                      static_cast<SimTime>(i), obs::kTracePid, 1,
                      /*parent=*/i, /*follows=*/0);
      spans.End(id, static_cast<SimTime>(i) + 0.5,
                static_cast<double>(i & 255));
    }
    double sec = MsSince(t0) / 1000.0;
    FLOWER_CHECK(spans.total_started() == n) << "span count mismatch";
    if (sec > 0.0) out.emit_per_sec = static_cast<double>(n) / sec;
  }
  {
    obs::SpanCollector spans(1 << 16);  // Disabled: never enabled.
    auto t0 = std::chrono::steady_clock::now();
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i) {
      acc += spans.Begin(obs::SpanKind::kSense, "loop",
                         static_cast<SimTime>(i), obs::kTracePid, 1);
    }
    double sec = MsSince(t0) / 1000.0;
    FLOWER_CHECK(acc == 0) << "disabled Begin must return 0";
    if (sec > 0.0) out.disabled_per_sec = static_cast<double>(n) / sec;
  }
  return out;
}

// ---------------------------------------------------------------------

void WriteJson(std::FILE* fp, bool smoke, double base_eps,
               const DisabledRun& disabled, double disabled_delta_pct,
               double off_eps, double on_eps, double overhead_pct,
               uint64_t spans_recorded, const SpanRate& rate,
               const std::vector<size_t>& threads, bool deterministic) {
  std::fprintf(fp, "{\n  \"bench\": \"obs_overhead\",\n");
  std::fprintf(fp, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(fp, "  \"simcore_baseline_events_per_sec\": %.0f,\n",
               base_eps);
  std::fprintf(fp,
               "  \"disabled\": {\"events_per_sec\": %.0f, "
               "\"delta_pct\": %.2f, \"steady_ticks\": %llu, "
               "\"steady_allocations\": %llu},\n",
               disabled.run.events_per_sec, disabled_delta_pct,
               static_cast<unsigned long long>(disabled.steady_ticks),
               static_cast<unsigned long long>(disabled.steady_allocations));
  std::fprintf(fp,
               "  \"enabled\": {\"off_events_per_sec\": %.0f, "
               "\"on_events_per_sec\": %.0f, \"overhead_pct\": %.2f, "
               "\"spans_recorded\": %llu},\n",
               off_eps, on_eps, overhead_pct,
               static_cast<unsigned long long>(spans_recorded));
  std::fprintf(fp,
               "  \"span_rate\": {\"emit_per_sec\": %.0f, "
               "\"disabled_calls_per_sec\": %.0f},\n",
               rate.emit_per_sec, rate.disabled_per_sec);
  std::fprintf(fp, "  \"determinism\": {\"threads\": [");
  for (size_t i = 0; i < threads.size(); ++i) {
    std::fprintf(fp, "%zu%s", threads[i],
                 i + 1 < threads.size() ? ", " : "");
  }
  std::fprintf(fp, "], \"verdict\": \"%s\"}\n}\n",
               deterministic ? "identical" : "DIVERGED");
}

int Run(bool smoke, const std::string& out_path) {
  bench::Header(smoke ? "PERF  Observability plane (smoke): spans + "
                        "tracked-snapshot overhead"
                      : "PERF  Observability plane: spans + "
                        "tracked-snapshot overhead");

  const double flow_sim_seconds = smoke ? 60.0 : 300.0;
  const double managed_sim_seconds = smoke ? 900.0 : 7200.0;
  const double determinism_sim_seconds = smoke ? 900.0 : 1800.0;
  const uint64_t span_loop = smoke ? 400000 : 4000000;

  // Best-of-3, interleaved so transient machine load hits both sides
  // alike; max damps wall-clock variance.
  double base_eps = 0.0;
  DisabledRun disabled;
  for (int rep = 0; rep < 3; ++rep) {
    base_eps = std::max(base_eps, RunBareFlow(flow_sim_seconds).events_per_sec);
    DisabledRun d = RunDisabledFlow(flow_sim_seconds);
    // Best events/s across reps; the allocation count is a property of
    // the code path, not the machine, so every rep must report the same
    // number — keep the worst so a flaky nonzero count cannot hide.
    if (rep == 0 || d.run.events_per_sec > disabled.run.events_per_sec) {
      uint64_t worst =
          rep == 0 ? d.steady_allocations
                   : std::max(disabled.steady_allocations,
                              d.steady_allocations);
      disabled = d;
      disabled.steady_allocations = worst;
    } else {
      disabled.steady_allocations =
          std::max(disabled.steady_allocations, d.steady_allocations);
    }
  }
  double disabled_delta_pct =
      base_eps > 0.0
          ? 100.0 * (base_eps - disabled.run.events_per_sec) / base_eps
          : 0.0;
  TablePrinter bare({"configuration", "events/s"});
  bare.AddRow({"bare flow (simcore baseline)",
               TablePrinter::Num(base_eps, 0)});
  bare.AddRow({"obs plane attached, spans disabled",
               TablePrinter::Num(disabled.run.events_per_sec, 0)});
  bare.Print(std::cout);
  std::cout << "disabled delta: " << TablePrinter::Num(disabled_delta_pct, 2)
            << "% | steady-tick allocations: "
            << disabled.steady_allocations << " over "
            << disabled.steady_ticks << " ticks\n\n";

  double off_eps = 0.0;
  double on_eps = 0.0;
  uint64_t spans_recorded = 0;
  for (int rep = 0; rep < 3; ++rep) {
    off_eps = std::max(
        off_eps, RunManagedFlow(managed_sim_seconds, /*spans=*/false,
                                /*threads=*/1, /*replan=*/false,
                                /*serialize=*/false)
                     .events_per_sec);
    ManagedRun on = RunManagedFlow(managed_sim_seconds, /*spans=*/true,
                                   /*threads=*/1, /*replan=*/false,
                                   /*serialize=*/false);
    on_eps = std::max(on_eps, on.events_per_sec);
    spans_recorded = on.spans_recorded;
  }
  double overhead_pct =
      off_eps > 0.0 ? 100.0 * (off_eps - on_eps) / off_eps : 0.0;
  TablePrinter managed({"managed flow", "events/s"});
  managed.AddRow({"spans off", TablePrinter::Num(off_eps, 0)});
  managed.AddRow({"spans on", TablePrinter::Num(on_eps, 0)});
  managed.Print(std::cout);
  std::cout << "span overhead: " << TablePrinter::Num(overhead_pct, 2)
            << "% (" << spans_recorded << " spans recorded)\n\n";

  SpanRate rate = MeasureSpanRate(span_loop);
  std::cout << "SpanCollector Begin+End: "
            << TablePrinter::Num(rate.emit_per_sec, 0)
            << " spans/s enabled, "
            << TablePrinter::Num(rate.disabled_per_sec, 0)
            << " calls/s disabled\n\n";

  const std::vector<size_t> threads = {1, 4, 16};
  bool deterministic = true;
  std::string ref_decisions;
  std::string ref_spans;
  for (size_t i = 0; i < threads.size(); ++i) {
    ManagedRun r = RunManagedFlow(determinism_sim_seconds, /*spans=*/true,
                                  threads[i], /*replan=*/true,
                                  /*serialize=*/true);
    if (i == 0) {
      ref_decisions = std::move(r.decisions_jsonl);
      ref_spans = std::move(r.spans_json);
      FLOWER_CHECK(!ref_decisions.empty() && !ref_spans.empty())
          << "determinism run produced no output";
    } else {
      deterministic &= r.decisions_jsonl == ref_decisions;
      deterministic &= r.spans_json == ref_spans;
    }
  }
  std::cout << "determinism at 1/4/16 planner threads: "
            << (deterministic ? "byte-identical" : "DIVERGED") << "\n\n";

  if (std::FILE* fp = std::fopen(out_path.c_str(), "w")) {
    WriteJson(fp, smoke, base_eps, disabled, disabled_delta_pct, off_eps,
              on_eps, overhead_pct, spans_recorded, rate, threads,
              deterministic);
    std::fclose(fp);
    std::cout << "wrote " << out_path << "\n";
  } else {
    std::cerr << "could not open " << out_path << " for writing\n";
    if (!smoke) return 1;
  }

  if (smoke) {
    std::cout << "[SKIP] smoke mode: gates not evaluated\n";
    return 0;
  }
  bool ok = true;
  ok &= bench::Verdict("disabled obs plane within 1% of simcore baseline "
                       "(got " + TablePrinter::Num(disabled_delta_pct, 2) +
                           "%)",
                       disabled_delta_pct <= 1.0);
  ok &= bench::Verdict(
      "zero allocations per steady tick with obs plane attached (got " +
          std::to_string(disabled.steady_allocations) + ")",
      disabled.steady_allocations == 0);
  ok &= bench::Verdict("span recording overhead <= 5% (got " +
                           TablePrinter::Num(overhead_pct, 2) + "%)",
                       overhead_pct <= 5.0);
  ok &= bench::Verdict("span Begin+End >= 1M spans/s (got " +
                           TablePrinter::Num(rate.emit_per_sec, 0) + ")",
                       rate.emit_per_sec >= 1.0e6);
  ok &= bench::Verdict("event order byte-identical at 1/4/16 threads",
                       deterministic);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status()
              << "\nusage: obs_overhead [--smoke] [--out=BENCH_obs.json]\n";
    return 2;
  }
  bool smoke = flags->GetBool("smoke");
  std::string out = flags->GetString("out", "BENCH_obs.json");
  return flower::Run(smoke, out);
}
