// Simulation-core throughput bench: measures the bucketed timer-wheel
// calendar (sim::Simulation). Three parts:
//
//   calendar   raw event throughput: a pool of self-rescheduling
//              actors drives the wheel; reports events/s (the bench's
//              headline).
//   flows      end-to-end sim rate with 1 / 4 / 16 full analytics
//              flows (Kinesis -> Storm -> DynamoDB, no metric store):
//              events/s and tuples/s of simulated work.
//   steady     allocations per steady-state cluster tick, measured
//              with a global operator-new hook after the flow has
//              warmed every ring buffer and wheel bucket.
//
// Execution order against the binary-heap calendar the wheel replaced
// is pinned by the calendar property test (tests/sim), not here.
// Results land in a JSON file (default BENCH_simcore.json). Full mode
// gates on kWheelFloorEventsPerSec and zero allocations per steady
// tick. --smoke shrinks the workloads, skips the gates, and always
// exits 0.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "flow/flow.h"
#include "sim/simulation.h"
#include "tools/flag_parser.h"
#include "workload/arrival.h"

namespace flower {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------
// Part A: raw calendar throughput. kActors events are always pending;
// each firing reschedules itself with a delay drawn from a fixed table
// (sub-tick to multi-second, so buckets, ties and sorted-activation all
// get exercised).

constexpr size_t kActors = 262144;

/// Full-mode floor on the wheel's events/s: 5x the binary-heap
/// calendar's best-of-3 rate (1.96M events/s), measured with this
/// bench's actor load on a 4-hardware-thread x86-64 host just before
/// the heap moved into tests/. It replaces the "wheel >= 5x heap"
/// ratio gate with the same bar as an absolute number.
constexpr double kWheelFloorEventsPerSec = 10.0e6;

struct ActorLoad {
  sim::Simulation eng;
  uint64_t remaining = 0;
  double delays[64];

  explicit ActorLoad(uint64_t total_events) : remaining(total_events) {
    // Exactly representable delays spanning sub-tick (1/64 s ticks) to
    // ~4 s; repeats generate same-instant ties, and the spread keeps
    // tens of thousands of timers pending — the regime the wheel is
    // built for (a binary heap pays O(log n) per op here).
    for (size_t i = 0; i < 64; ++i) {
      delays[i] = 0.0625 * static_cast<double>((i % 61) + 1);
    }
  }

  void Fire(uint32_t idx) {
    if (remaining == 0) return;
    --remaining;
    (void)eng.ScheduleAfter(delays[(idx + static_cast<uint32_t>(remaining)) &
                                   63],
                            [this, idx] { Fire(idx); });
  }

  double Run() {  // Returns events/s.
    for (uint32_t i = 0; i < kActors; ++i) {
      (void)eng.ScheduleAt(delays[i & 63], [this, i] { Fire(i); });
    }
    auto t0 = std::chrono::steady_clock::now();
    while (eng.Step()) {
    }
    double sec = MsSince(t0) / 1000.0;
    return sec > 0.0 ? static_cast<double>(eng.events_executed()) / sec : 0.0;
  }
};

// ---------------------------------------------------------------------
// Part B: full flows. N independent analytics flows on one simulation,
// no metric store (the sim core is the subject, not the publishers).

struct FlowScaleResult {
  size_t flows = 0;
  double sim_seconds = 0.0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double tuples_per_sec = 0.0;
};

FlowScaleResult RunFlows(size_t n, double sim_seconds) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<flow::DataAnalyticsFlow>> flows;
  for (size_t i = 0; i < n; ++i) {
    flow::FlowConfig cfg = bench::CanonicalFlow();
    cfg.name = "flow" + std::to_string(i);
    cfg.stream.name = "stream" + std::to_string(i);
    cfg.cluster.name = "cluster" + std::to_string(i);
    cfg.table.name = "table" + std::to_string(i);
    auto f = flow::DataAnalyticsFlow::Create(&sim, nullptr, cfg);
    FLOWER_CHECK(f.ok()) << f.status().ToString();
    workload::ClickStreamConfig wl = bench::CanonicalWorkload();
    Status st = (*f)->AttachWorkload(
        std::make_shared<workload::ConstantArrival>(300.0), wl,
        /*seed=*/1000 + i);
    FLOWER_CHECK(st.ok()) << st.ToString();
    flows.push_back(std::move(*f));
  }
  auto t0 = std::chrono::steady_clock::now();
  sim.RunUntil(sim_seconds);
  FlowScaleResult out;
  out.flows = n;
  out.sim_seconds = sim_seconds;
  out.wall_ms = MsSince(t0);
  double wall_sec = out.wall_ms / 1000.0;
  uint64_t tuples = 0;
  for (auto& f : flows) tuples += f->cluster().total_executed();
  if (wall_sec > 0.0) {
    out.events_per_sec =
        static_cast<double>(sim.events_executed()) / wall_sec;
    out.tuples_per_sec = static_cast<double>(tuples) / wall_sec;
  }
  return out;
}

// ---------------------------------------------------------------------
// Part C: allocations per steady-state tick. One flow, warmed past a
// full wheel rotation (64 s) and several slide boundaries so every
// ring, queue and bucket holds its high-water capacity; then a window
// of pure steady ticks (no slide boundary lands inside it) is
// measured. Boundary ticks run the window emission + DynamoDB persist
// path; a 10 s window crossing one is reported separately here,
// non-gating (bench/perf_micro hard-guards 30 s spanning three).

struct SteadyTickResult {
  uint64_t steady_ticks = 0;
  uint64_t steady_allocations = 0;
  uint64_t boundary_allocations = 0;  // 10 s window incl. one boundary.
};

SteadyTickResult MeasureSteadyTick() {
  sim::Simulation sim;
  flow::FlowConfig cfg = bench::CanonicalFlow();
  // Storage provisioned so a slide boundary's persist burst completes
  // inside the boundary tick; a throttled backlog would otherwise
  // drain DynamoDB writes (and their first-touch item nodes) into the
  // measured steady window.
  cfg.table.initial_wcu = 2000.0;
  auto f = flow::DataAnalyticsFlow::Create(&sim, nullptr, cfg);
  FLOWER_CHECK(f.ok()) << f.status().ToString();
  // 300 tuples/s is ~80% of the canonical 2-worker cluster's capacity
  // (5300 compute units per tuple across the pipeline, 2e6 units/s).
  // An overloaded cluster never reaches steady state: the window bolt
  // starves behind the backlog and keeps first-touching entities (and
  // their container capacities) far past any fixed warm-up horizon.
  Status st = (*f)->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(300.0),
      bench::CanonicalWorkload(), /*seed=*/7);
  FLOWER_CHECK(st.ok()) << st.ToString();
  // Warm-up: past a full wheel rotation (64 s) AND a full rotation of
  // the sliding window's bucket ring (8 slots x 10 s slide = 80 s), so
  // every wheel bucket, ring slot and tuple queue has its high-water
  // capacity; then measure a run of ticks with no slide boundary
  // inside (boundary-100's emission lands ~101-102 with tuple lag).
  sim.RunUntil(103.0);
  SteadyTickResult out;
  uint64_t before = bench::AllocationCount();
  sim.RunUntil(109.0);  // Ticks at 104..109; boundary-110 emits ~111.
  out.steady_allocations =
      bench::AllocationCount() - before;
  out.steady_ticks = 6;
  before = bench::AllocationCount();
  sim.RunUntil(119.0);  // Crosses the boundary-110 emission.
  out.boundary_allocations =
      bench::AllocationCount() - before;
  return out;
}

// ---------------------------------------------------------------------

void WriteJson(std::FILE* fp, bool smoke, double wheel_eps,
               const std::vector<FlowScaleResult>& flows,
               const SteadyTickResult& tick) {
  std::fprintf(fp, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(fp, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(fp, "  \"cpu_model\": \"%s\",\n", bench::CpuModel().c_str());
  std::fprintf(fp, "  \"calendar\": {\"wheel_events_per_sec\": %.0f},\n",
               wheel_eps);
  std::fprintf(fp, "  \"flows\": [\n");
  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowScaleResult& r = flows[i];
    std::fprintf(fp,
                 "    {\"flows\": %zu, \"sim_seconds\": %.0f, "
                 "\"wall_ms\": %.1f, \"events_per_sec\": %.0f, "
                 "\"tuples_per_sec\": %.0f}%s\n",
                 r.flows, r.sim_seconds, r.wall_ms, r.events_per_sec,
                 r.tuples_per_sec, i + 1 < flows.size() ? "," : "");
  }
  std::fprintf(fp, "  ],\n");
  std::fprintf(fp,
               "  \"steady_tick\": {\"ticks\": %llu, \"allocations\": "
               "%llu, \"allocs_per_tick\": %.3f, "
               "\"boundary_window_allocations\": %llu}\n}\n",
               static_cast<unsigned long long>(tick.steady_ticks),
               static_cast<unsigned long long>(tick.steady_allocations),
               tick.steady_ticks > 0
                   ? static_cast<double>(tick.steady_allocations) /
                         static_cast<double>(tick.steady_ticks)
                   : 0.0,
               static_cast<unsigned long long>(tick.boundary_allocations));
}

int Run(bool smoke, const std::string& out_path) {
  bench::Header(smoke ? "PERF  Simulation core (smoke): timer-wheel "
                        "calendar throughput"
                      : "PERF  Simulation core: timer-wheel calendar "
                        "throughput");

  const uint64_t calendar_events = smoke ? 400000 : 4000000;
  const double flow_sim_seconds = smoke ? 60.0 : 300.0;

  // Best-of-3: max damps the run-to-run variance of a wall-clock
  // measure.
  double wheel_eps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    wheel_eps = std::max(wheel_eps, ActorLoad(calendar_events).Run());
  }
  TablePrinter cal({"calendar", "events/s"});
  cal.AddRow({"timer wheel", TablePrinter::Num(wheel_eps, 0)});
  cal.Print(std::cout);
  std::cout << "\n";

  std::vector<FlowScaleResult> flows;
  TablePrinter ft({"flows", "sim s", "wall (ms)", "events/s", "tuples/s"});
  for (size_t n : {size_t{1}, size_t{4}, size_t{16}}) {
    flows.push_back(RunFlows(n, flow_sim_seconds));
    const FlowScaleResult& r = flows.back();
    ft.AddRow({std::to_string(r.flows), TablePrinter::Num(r.sim_seconds, 0),
               TablePrinter::Num(r.wall_ms, 1),
               TablePrinter::Num(r.events_per_sec, 0),
               TablePrinter::Num(r.tuples_per_sec, 0)});
  }
  ft.Print(std::cout);

  SteadyTickResult tick = MeasureSteadyTick();
  std::cout << "\nsteady-state sim ticks: "
            << tick.steady_allocations << " allocations over "
            << tick.steady_ticks << " ticks ("
            << tick.boundary_allocations
            << " in a 10 s window crossing a slide boundary)\n\n";

  if (std::FILE* fp = std::fopen(out_path.c_str(), "w")) {
    WriteJson(fp, smoke, wheel_eps, flows, tick);
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
  ok &= bench::Verdict("timer wheel >= " +
                           TablePrinter::Num(kWheelFloorEventsPerSec, 0) +
                           " events/s (got " +
                           TablePrinter::Num(wheel_eps, 0) + ")",
                       wheel_eps >= kWheelFloorEventsPerSec);
  ok &= bench::Verdict(
      "zero allocations per steady-state tick (got " +
          std::to_string(tick.steady_allocations) + " over " +
          std::to_string(tick.steady_ticks) + " ticks)",
      tick.steady_allocations == 0);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: sim_throughput [--smoke] [--out=BENCH_simcore.json]\n";
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n" << kUsage;
    return 2;
  }
  flower::Status known = flags->CheckKnown({"out"}, {"smoke"});
  if (!known.ok()) {
    std::cerr << known.message() << "\n" << kUsage;
    return 2;
  }
  bool smoke = flags->GetBool("smoke");
  std::string out = flags->GetString("out", "BENCH_simcore.json");
  return flower::Run(smoke, out);
}
