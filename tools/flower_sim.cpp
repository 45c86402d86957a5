// flower_sim — command-line experiment driver for the Flower simulator.
//
// Runs the managed click-stream flow for a configurable duration,
// controller family, and workload, then prints a summary (and
// optionally the raw metric CSV for plotting). Examples:
//
//   flower_sim --hours=4
//   flower_sim --controller=rule-based --workload=flashcrowd --rate=900
//   flower_sim --workload=diurnal --rate=800 --amplitude=600 \
//              --period-hours=6 --reference=70 --csv-out=metrics.csv
//   flower_sim --trace=prod.csv --controller=feedforward
//
// Exit code 0 on success; 2 on bad flags.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "control/metrics.h"
#include "core/dependency_analyzer.h"
#include "core/flow_builder.h"
#include "core/monitor.h"
#include "core/resource_share.h"
#include "exec/thread_pool.h"
#include "fleet/fleet_manager.h"
#include "obs/health/health_monitor.h"
#include "obs/telemetry.h"
#include "tools/flag_parser.h"
#include "workload/trace_io.h"

using namespace flower;

namespace {

constexpr const char* kUsage = R"(flower_sim — Flower simulator experiment driver

Flags (all optional):
  --controller=NAME     adaptive-gain | adaptive-gain-no-memory | fixed-gain |
                        quasi-adaptive | rule-based | target-tracking |
                        feedforward                     [adaptive-gain]
  --workload=KIND       constant | diurnal | flashcrowd | mmpp   [diurnal]
  --trace=FILE.csv      replay a rate trace instead of --workload
  --rate=N              base rate, records/s                     [800]
  --amplitude=N         diurnal amplitude / surge height         [600]
  --period-hours=H      diurnal period                           [4]
  --hours=H             simulated duration                       [4]
  --reference=PCT       target utilization, all layers           [60]
  --monitoring-period=S control period, seconds                  [120]
  --seed=N              RNG seed                                 [42]
  --threads=N           NSGA-II planner worker threads (0 = all cores, at
                        most 256); the planned shares are bit-identical at
                        any N                                      [1]
  --warm-start          seed the instrumented planner pass's second period
                        from the first period's final population (runs the
                        pass twice; needs an observation flag)
  --stall-generations=N stop a planner solve after N consecutive stalled
                        generations (0 = run the full budget)      [0]
  --seeds=N             replicate over N consecutive seeds and report
                        mean +/- sd of the headline metrics       [1]
  --csv-out=FILE        dump watched metrics as CSV
  --trace-out=FILE      record causal control spans (sense -> decide ->
                        actuate -> effect, plan -> generation, faults) and
                        write them as Chrome trace_event JSON with flow
                        arrows and per-loop y/u/gain counters; open in
                        Perfetto or chrome://tracing
  --metrics-out=FILE    write control-decision records plus a final metrics
                        snapshot as JSON lines
  --health-out=FILE     run the flow-health layer (SLO engine, anomaly
                        detectors, root-cause attribution) alongside the
                        control loops and write its state as JSON lines
  --openmetrics-out=FILE  write the final metrics snapshot in OpenMetrics/
                        Prometheus text exposition format
  --quiet               summary only (no dashboard)
  --help                this text

Fleet mode (multi-tenant, replaces the single-flow run):
  --fleet               run a fleet of independent tenant flows under the
                        hierarchical budget arbiter
  --fleet-tenants=N     number of tenant flows                   [16]
  --fleet-budget=USD    fleet-wide hourly dollar budget          [100]
  --fleet-period=S      arbitration period, seconds              [900]
  --fleet-threads=N     simulation partitions advanced in parallel (at most
                        256); the merged control decisions are identical
                        at any N                                   [1]
  --fleet-tenant-period-jitter  spread tenant arbitration horizons over
                        period/{1,2,3,4} deterministically (by --seed), so
                        boundaries only partially overlap — the regime the
                        work-stealing sweep exists for
  --fleet-report-out=FILE  write one JSON line per (period, tenant) with
                        demand/grant/spend/steps and the period's budget
                        conservation flag
  --fleet-capture-dir=DIR  arm every partition's flight recorder with
                        burn-rate SLO health triggers; an alert edge dumps
                        a self-contained capture bundle <tenant>.json
                        into DIR (created if missing); flower-replay
                        replays it
  --fleet-fault         inject a deterministic sensor-spike fault (+200 on
                        sensed analytics utilization from t=300s) into
                        tenant 0, so a capture-armed fleet run reliably
                        trips an alert
  --hours / --seed also apply in fleet mode.
)";

/// Installs the simulation clock as the log-line time source for the
/// lifetime of the scope, so stderr logs carry "t=<sim seconds>s".
struct ScopedLogClock {
  explicit ScopedLogClock(sim::Simulation* sim) {
    SetLogClock(
        [](void* ctx) { return static_cast<sim::Simulation*>(ctx)->Now(); },
        sim);
  }
  ~ScopedLogClock() { SetLogClock(nullptr, nullptr); }
};

/// Shard ceiling of the single-flow run's ingestion layer.
constexpr double kIngestionMaxShards = 64.0;

/// InvalidArgument when `peak` records/s exceeds what the flow's stream
/// can be offered (see kMaxOfferedRecordsPerSecPerShard).
Status CheckPeakRate(double peak, const std::string& what) {
  const double bound = kMaxOfferedRecordsPerSecPerShard * kIngestionMaxShards;
  if (peak <= bound) return Status::OK();
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                " peaks at %g records/s, above %g (10x the write limit of "
                "%g shards)",
                peak, bound, kIngestionMaxShards);
  return Status::InvalidArgument(what + detail);
}

Result<std::shared_ptr<workload::ArrivalProcess>> MakeWorkload(
    const tools::FlagParser& flags, double hours) {
  FLOWER_ASSIGN_OR_RETURN(double rate, flags.GetDouble("rate", 800.0));
  FLOWER_ASSIGN_OR_RETURN(double amplitude,
                          flags.GetDouble("amplitude", 600.0));
  FLOWER_ASSIGN_OR_RETURN(double period_hours,
                          flags.GetDouble("period-hours", 4.0));
  FLOWER_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  if (!(std::isfinite(rate) && rate >= 0.0 && std::isfinite(amplitude) &&
        amplitude >= 0.0)) {
    return Status::InvalidArgument(
        "--rate and --amplitude must be finite and >= 0");
  }
  if (!(std::isfinite(period_hours) && period_hours > 0.0)) {
    return Status::InvalidArgument("--period-hours must be finite and > 0");
  }
  std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    FLOWER_ASSIGN_OR_RETURN(TimeSeries trace,
                            workload::LoadRateTraceCsv(trace_path));
    double peak = 0.0;
    for (const Sample& s : trace.samples()) peak = std::max(peak, s.value);
    FLOWER_RETURN_NOT_OK(CheckPeakRate(peak, "--trace " + trace_path));
    return std::shared_ptr<workload::ArrivalProcess>(
        std::make_shared<workload::TraceArrival>(std::move(trace)));
  }
  std::string kind = flags.GetString("workload", "diurnal");
  // Each shape's peak: the surge is 3x --amplitude, MMPP's high state
  // 2x above --rate.
  const double surge = kind == "flashcrowd" ? 3.0
                       : kind == "mmpp"     ? 2.0
                       : kind == "diurnal"  ? 1.0
                                            : 0.0;
  FLOWER_RETURN_NOT_OK(
      CheckPeakRate(rate + surge * amplitude, "--workload=" + kind));
  if (kind == "constant") {
    return std::shared_ptr<workload::ArrivalProcess>(
        std::make_shared<workload::ConstantArrival>(rate));
  }
  if (kind == "diurnal") {
    return std::shared_ptr<workload::ArrivalProcess>(
        std::make_shared<workload::DiurnalArrival>(rate, amplitude,
                                                   period_hours * kHour));
  }
  if (kind == "flashcrowd") {
    auto composite = std::make_shared<workload::CompositeArrival>();
    composite->Add(std::make_shared<workload::ConstantArrival>(rate));
    composite->Add(std::make_shared<workload::FlashCrowdArrival>(
        0.0, amplitude * 3.0, hours * kHour / 2.0, 30.0 * kMinute,
        5.0 * kMinute));
    return std::shared_ptr<workload::ArrivalProcess>(composite);
  }
  if (kind == "mmpp") {
    return std::shared_ptr<workload::ArrivalProcess>(
        std::make_shared<workload::MmppArrival>(
            rate, rate + 2.0 * amplitude, 20.0 * kMinute, 10.0 * kMinute,
            hours * kHour, static_cast<uint64_t>(seed)));
  }
  return Status::InvalidArgument("unknown --workload: " + kind);
}

// The loop traces the evaluation reads are views over the decision
// log's ring. Once the ring has overwritten steps, the evaluation (which
// integrates actuations from the loop's first step) reaches past the
// oldest retained one; say so on stderr rather than report numbers for
// a window the log no longer holds.
void NoteTraceRetention(const obs::DecisionLog& log) {
  if (log.total_appended() <= log.size()) return;
  std::cerr << "note: the decision log retains the last " << log.size()
            << " of " << log.total_appended() << " control steps (from t="
            << log.at(0).time << " s); the analytics evaluation covers "
            << "only those\n";
}

struct ReplicaMetrics {
  double drop_pct = 0.0;
  double out_of_band_pct = 0.0;
  double overload_pct = 0.0;
  double mae = 0.0;
  double resizes = 0.0;
};

// Runs one replication of the configured scenario and fills `out`.
// Returns non-zero on error (mirrors RunOrDie's reporting).
Result<ReplicaMetrics> RunReplica(const tools::FlagParser& flags,
                                  uint64_t seed) {
  FLOWER_ASSIGN_OR_RETURN(double hours, flags.GetDouble("hours", 4.0));
  FLOWER_ASSIGN_OR_RETURN(double reference,
                          flags.GetDouble("reference", 60.0));
  FLOWER_ASSIGN_OR_RETURN(double period,
                          flags.GetDouble("monitoring-period", 120.0));
  FLOWER_ASSIGN_OR_RETURN(
      core::ControllerKind kind,
      core::ControllerKindFromString(
          flags.GetString("controller", "adaptive-gain")));
  FLOWER_ASSIGN_OR_RETURN(std::shared_ptr<workload::ArrivalProcess> arrival,
                          MakeWorkload(flags, hours));

  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  core::LayerElasticityConfig layer_defaults;
  layer_defaults.reference_utilization_pct = reference;
  layer_defaults.monitoring_period_sec = period;
  layer_defaults.monitoring_window_sec = period;
  core::LayerElasticityConfig analytics = layer_defaults;
  analytics.max_resource = 40.0;
  FLOWER_ASSIGN_OR_RETURN(core::ManagedFlow managed,
                          core::FlowBuilder()
                              .WithAnalytics(analytics)
                              .WithControllerKind(kind)
                              .WithWorkload(arrival)
                              .WithSeed(seed)
                              .Build(&sim, &metrics));
  double horizon = hours * kHour;
  sim.RunUntil(horizon);

  ReplicaMetrics out;
  auto& flow = *managed.flow;
  out.drop_pct =
      flow.generator()->total_generated() > 0
          ? 100.0 *
                static_cast<double>(flow.generator()->total_dropped()) /
                static_cast<double>(flow.generator()->total_generated())
          : 0.0;
  FLOWER_ASSIGN_OR_RETURN(const core::LayerControlState* state,
                          managed.manager->GetState(core::Layer::kAnalytics));
  NoteTraceRetention(*state->log);
  FLOWER_ASSIGN_OR_RETURN(
      control::ControlQuality quality,
      control::EvaluateControl(
          state->sensed().Window(30.0 * kMinute, horizon),
          state->actuations(), reference, 15.0, horizon));
  out.out_of_band_pct = 100.0 * quality.violation_fraction;
  out.overload_pct = 100.0 * quality.overload_fraction;
  out.mae = quality.mean_abs_error;
  out.resizes = static_cast<double>(quality.actuation_changes);
  return out;
}

// Replicated mode: run N seeds, print per-seed rows and mean +/- sd.
int RunReplicated(const tools::FlagParser& flags, int64_t seeds) {
  auto seed0 = flags.GetInt("seed", 42);
  if (!seed0.ok()) {
    std::cerr << seed0.status() << "\n";
    return 2;
  }
  TablePrinter table({"seed", "drop %", "out-of-band %", "overload %",
                      "MAE", "resizes"});
  std::vector<ReplicaMetrics> all;
  for (int64_t s = 0; s < seeds; ++s) {
    auto m = RunReplica(flags, static_cast<uint64_t>(*seed0 + s));
    if (!m.ok()) {
      std::cerr << "seed " << (*seed0 + s) << ": " << m.status() << "\n";
      return 1;
    }
    table.AddRow({std::to_string(*seed0 + s),
                  TablePrinter::Num(m->drop_pct, 3),
                  TablePrinter::Num(m->out_of_band_pct, 1),
                  TablePrinter::Num(m->overload_pct, 1),
                  TablePrinter::Num(m->mae, 1),
                  TablePrinter::Num(m->resizes, 0)});
    all.push_back(*m);
  }
  auto stats_row = [&](auto getter) {
    std::vector<double> v;
    for (const ReplicaMetrics& m : all) v.push_back(getter(m));
    double mean = 0.0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0.0;
    for (double x : v) var += (x - mean) * (x - mean);
    var = v.size() > 1 ? var / static_cast<double>(v.size() - 1) : 0.0;
    return TablePrinter::Num(mean, 2) + " +/- " +
           TablePrinter::Num(std::sqrt(var), 2);
  };
  table.AddRow({"mean",
                stats_row([](const ReplicaMetrics& m) { return m.drop_pct; }),
                stats_row([](const ReplicaMetrics& m) {
                  return m.out_of_band_pct;
                }),
                stats_row([](const ReplicaMetrics& m) {
                  return m.overload_pct;
                }),
                stats_row([](const ReplicaMetrics& m) { return m.mae; }),
                stats_row([](const ReplicaMetrics& m) {
                  return m.resizes;
                })});
  table.Print(std::cout);
  return 0;
}

// Fleet mode: many independent tenant flows sharing one hourly dollar
// budget, re-divided by the hierarchical arbiter every period.
int RunFleet(const tools::FlagParser& flags) {
  auto hours_or = flags.GetDouble("hours", 4.0);
  auto tenants_or = flags.GetInt("fleet-tenants", 16);
  auto budget_or = flags.GetDouble("fleet-budget", 100.0);
  auto period_or = flags.GetDouble("fleet-period", 900.0);
  auto threads_or = flags.GetInt("fleet-threads", 1);
  auto seed_or = flags.GetInt("seed", 42);
  if (!hours_or.ok() || !tenants_or.ok() || !budget_or.ok() ||
      !period_or.ok() || !threads_or.ok() || !seed_or.ok()) {
    std::cerr << "bad numeric flag\n";
    return 2;
  }
  if (*tenants_or < 1 || *threads_or < 1 ||
      *threads_or > static_cast<int64_t>(exec::kMaxThreads) ||
      *budget_or <= 0.0 || *period_or <= 0.0) {
    std::cerr << "--fleet-tenants expects a positive integer, "
                 "--fleet-threads an integer in [1, "
              << exec::kMaxThreads
              << "]; --fleet-budget/--fleet-period expect positive numbers\n";
    return 2;
  }

  std::string report_out = flags.GetString("fleet-report-out", "");
  std::string capture_dir = flags.GetString("fleet-capture-dir", "");

  fleet::FleetConfig config;
  config.fleet_budget_usd_per_hour = *budget_or;
  config.arbitration_period_sec = *period_or;
  config.num_threads = static_cast<size_t>(*threads_or);
  if (!capture_dir.empty()) {
    config.partition.capture.enabled = true;
    config.partition.capture.health_trigger = true;
    config.partition.capture.bundle_dir = capture_dir;
  }
  fleet::FleetManager manager(config);
  std::vector<fleet::TenantConfig> tenants = fleet::MakeTenantFleet(
      static_cast<size_t>(*tenants_or), static_cast<uint64_t>(*seed_or));
  if (flags.GetBool("fleet-tenant-period-jitter")) {
    fleet::ApplyPeriodJitter(&tenants, *period_or,
                             static_cast<uint64_t>(*seed_or));
  }
  if (flags.GetBool("fleet-fault") && !tenants.empty()) {
    // A sensed-utilization spike the controller cannot regulate away:
    // the analytics loop sees +200 points forever, so the burn-rate
    // SLOs breach and (with capture armed) the alert edge dumps a
    // bundle — the deterministic smoke path for the postmortem flow.
    fleet::TenantFault fault;
    fault.kind = "sensor-spike";
    fault.target = "analytics";
    fault.start = 300.0;
    fault.offset = 200.0;
    tenants.front().faults.push_back(fault);
  }
  for (fleet::TenantConfig& t : tenants) {
    Status st = manager.AddTenant(std::move(t));
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
  }
  Status st = manager.Start();
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  st = manager.RunFor(*hours_or * kHour);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }

  TablePrinter table({"period", "window", "demand $/h", "granted $/h",
                      "spend $/h", "steps", "conserved"});
  size_t idx = 0;
  for (const fleet::FleetPeriodReport& report : manager.reports()) {
    double demand = 0.0;
    double spend = 0.0;
    uint64_t steps = 0;
    for (const fleet::TenantPeriodOutcome& row : report.tenants) {
      demand += row.demand_usd;
      spend += row.spend_usd;
      steps += row.steps;
    }
    table.AddRow({std::to_string(idx++),
                  "[" + TablePrinter::Num(report.start / kHour, 2) + "h, " +
                      TablePrinter::Num(report.end / kHour, 2) + "h]",
                  TablePrinter::Num(demand, 2),
                  TablePrinter::Num(report.total_granted_usd, 2),
                  TablePrinter::Num(spend, 2), std::to_string(steps),
                  report.conservation_ok ? "yes" : "NO"});
  }
  std::cout << "fleet: " << manager.num_tenants() << " tenants, $"
            << TablePrinter::Num(*budget_or, 2) << "/h budget, arbitration "
            << "every " << TablePrinter::Num(*period_or, 0) << " s"
            << (flags.GetBool("fleet-tenant-period-jitter")
                    ? " (jittered per tenant)"
                    : "")
            << ", " << *threads_or << " thread(s)\n";
  table.Print(std::cout);
  // Sweep stats are schedule observables (steals and parks vary run to
  // run at >1 thread), so they go to stderr with the other noise —
  // stdout stays byte-identical across runs, which is the determinism
  // contract every surface honors.
  fleet::FleetSweepStats stats = manager.sweep_stats();
  std::cerr << "sweep: " << stats.arbitration_events << " arbitration events, "
            << stats.tasks_executed << " tasks, " << stats.steals
            << " steals, " << stats.mailbox_waits << " mailbox waits, "
            << "overlap " << TablePrinter::Num(stats.overlap_ratio(), 2)
            << "\n";

  if (!flags.GetBool("quiet")) {
    // Per-tenant view of the final period. With jittered periods the
    // last report holds only the tenants whose window opened last, so
    // row i is not tenant i: look each row's tenant up by id.
    const fleet::FleetPeriodReport& last = manager.reports().back();
    auto pattern_of = [&manager](const std::string& id) {
      for (size_t j = 0; j < manager.num_tenants(); ++j) {
        const fleet::TenantConfig& t = manager.partition(j)->tenant();
        if (t.id == id) return fleet::ArrivalPatternToString(t.pattern);
      }
      return "?";
    };
    TablePrinter per_tenant(
        {"tenant", "pattern", "demand $/h", "grant $/h", "spend $/h"});
    for (size_t i = 0; i < last.tenants.size() && i < 20; ++i) {
      const fleet::TenantPeriodOutcome& row = last.tenants[i];
      per_tenant.AddRow(
          {row.tenant, pattern_of(row.tenant),
           TablePrinter::Num(row.demand_usd, 3),
           TablePrinter::Num(row.grant_usd, 3),
           TablePrinter::Num(row.spend_usd, 3)});
    }
    std::cout << "\nfinal period, first " << std::min<size_t>(20, last.tenants.size())
              << " tenants:\n";
    per_tenant.Print(std::cout);
  }
  if (!report_out.empty()) {
    st = manager.ExportReportsJsonl(report_out);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote fleet period reports to " << report_out << "\n";
  }
  for (const std::string& path : manager.CapturedBundles()) {
    std::cout << "captured bundle: " << path << "\n";
  }
  return 0;
}

int RunOrDie(const tools::FlagParser& flags) {
  auto hours_or = flags.GetDouble("hours", 4.0);
  auto reference_or = flags.GetDouble("reference", 60.0);
  auto period_or = flags.GetDouble("monitoring-period", 120.0);
  auto seed_or = flags.GetInt("seed", 42);
  if (!hours_or.ok() || !reference_or.ok() || !period_or.ok() ||
      !seed_or.ok()) {
    std::cerr << "bad numeric flag\n";
    return 2;
  }
  double hours = *hours_or;
  auto kind =
      core::ControllerKindFromString(flags.GetString("controller",
                                                     "adaptive-gain"));
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 2;
  }
  auto arrival = MakeWorkload(flags, hours);
  if (!arrival.ok()) {
    std::cerr << arrival.status() << "\n";
    return 2;
  }

  auto threads_or = flags.GetInt("threads", 1);
  if (!threads_or.ok() || *threads_or < 0 ||
      *threads_or > static_cast<int64_t>(exec::kMaxThreads)) {
    std::cerr << "--threads expects an integer in [0, " << exec::kMaxThreads
              << "]\n";
    return 2;
  }
  auto stall_or = flags.GetInt("stall-generations", 0);
  if (!stall_or.ok() || *stall_or < 0) {
    std::cerr << "--stall-generations expects a non-negative integer\n";
    return 2;
  }
  const bool warm_start = flags.GetBool("warm-start");

  std::string trace_out = flags.GetString("trace-out", "");
  std::string metrics_out = flags.GetString("metrics-out", "");
  std::string health_out = flags.GetString("health-out", "");
  std::string openmetrics_out = flags.GetString("openmetrics-out", "");
  const bool observe = !trace_out.empty() || !metrics_out.empty() ||
                       !health_out.empty() || !openmetrics_out.empty();

  // The hub must outlive the managed flow, so it is declared first.
  obs::Telemetry telemetry;
  if (!trace_out.empty()) telemetry.spans().set_enabled(true);
  sim::Simulation sim;
  ScopedLogClock log_clock(&sim);
  cloudwatch::MetricStore metrics;
  core::LayerElasticityConfig layer_defaults;
  layer_defaults.reference_utilization_pct = *reference_or;
  layer_defaults.monitoring_period_sec = *period_or;
  layer_defaults.monitoring_window_sec = *period_or;
  core::LayerElasticityConfig ingestion = layer_defaults;
  ingestion.max_resource = kIngestionMaxShards;
  core::LayerElasticityConfig analytics = layer_defaults;
  analytics.max_resource = 40.0;
  core::LayerElasticityConfig storage = layer_defaults;
  storage.min_resource = 5.0;
  storage.max_resource = 2000.0;

  core::FlowBuilder builder;
  builder.WithIngestion(ingestion)
      .WithAnalytics(analytics)
      .WithStorage(storage)
      .WithControllerKind(*kind)
      .WithWorkload(*arrival)
      .WithSeed(static_cast<uint64_t>(*seed_or));
  if (observe) builder.WithTelemetry(&telemetry);
  auto managed = builder.Build(&sim, &metrics);
  if (!managed.ok()) {
    std::cerr << "failed to build flow: " << managed.status() << "\n";
    return 1;
  }

  if (observe) {
    // An instrumented NSGA-II share-planning pass. The planner runs
    // before the control loops start, so its generation spans anchor at
    // t=0 on the planner track. The plan is reported, not applied:
    // turning tracing on must not change the run it observes.
    core::ResourceShareRequest request;
    opt::Nsga2Config solver;
    solver.population_size = 48;
    solver.generations = 40;
    solver.seed = static_cast<uint64_t>(*seed_or);
    solver.num_threads = static_cast<size_t>(*threads_or);
    solver.on_generation =
        obs::MakeNsga2Observer(&telemetry, "share-planner", /*anchor=*/0.0);
    core::IncrementalPlanning inc;
    inc.warm_start = warm_start;
    inc.stall_generations = static_cast<size_t>(*stall_or);
    core::ResourceShareAnalyzer analyzer(solver, inc);
    analyzer.SetMetricsRegistry(&telemetry.metrics());
    auto shares = analyzer.AnalyzeIncremental(request);
    if (shares.ok() && warm_start) {
      // A second planning period over the same request, seeded from the
      // first period's final population — demonstrates the incremental
      // engine's convergence speedup in the exported telemetry.
      size_t cold_evals = shares->evaluations;
      shares = analyzer.AnalyzeIncremental(request);
      if (shares.ok()) {
        FLOWER_LOG(Info) << "warm-started re-plan: " << shares->evaluations
                         << " evaluations (cold period: " << cold_evals
                         << ")" << (shares->early_exit ? ", early exit" : "");
      }
    }
    if (shares.ok()) {
      auto plan =
          core::ResourceShareAnalyzer::PickBalancedPlan(*shares, request);
      if (plan.ok()) {
        FLOWER_LOG(Info) << "share plan (balanced): ingestion="
                         << plan->ingestion()
                         << " analytics=" << plan->analytics()
                         << " storage=" << plan->storage() << " cost=$"
                         << plan->hourly_cost_usd << "/h";
      }
    } else {
      FLOWER_LOG(Warning) << "share planning failed: " << shares.status();
    }
  }

  // The flow-health layer: stock SLO pack over the per-loop sensed
  // utilization, anomaly detectors on the loop gauges and failure
  // counters, periodic Eq. 1 dependency re-learning for attribution,
  // and the health annotator stamping decision records.
  std::unique_ptr<obs::health::HealthMonitor> health;
  core::DependencyAnalyzer dep_analyzer;
  if (!health_out.empty()) {
    obs::health::HealthMonitorConfig hcfg;
    hcfg.eval_period_sec = *period_or;
    health = std::make_unique<obs::health::HealthMonitor>(&telemetry, hcfg);
    for (const obs::health::SloSpec& spec :
         obs::health::MakeDefaultSloPack()) {
      Status st = health->AddSlo(spec);
      if (!st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
    }
    for (const char* layer : {"ingestion", "analytics", "storage"}) {
      obs::LabelSet labels{{"loop", layer}, {"layer", layer}};
      health->Watch(obs::health::AnomalyBank::Source::kGauge,
                    {"loop.sensed_y", labels}, layer);
      health->Watch(obs::health::AnomalyBank::Source::kCounterRate,
                    {"loop.actuation_failures", labels}, layer);
    }
    managed->manager->SetHealthAnnotator(
        [&health](const std::string& layer, SimTime) {
          return health->MaskFor(layer);
        });
    sim.SchedulePeriodic(hcfg.eval_period_sec, hcfg.eval_period_sec,
                         [&health, &sim] {
                           health->Evaluate(sim.Now());
                           return true;
                         });
    sim.SchedulePeriodic(
        30.0 * kMinute, 30.0 * kMinute, [&health, &dep_analyzer, &metrics,
                                         &sim] {
          std::vector<core::LayerMetric> lm = {
              {core::Layer::kIngestion,
               {"Flower/Kinesis", "IncomingRecords", "clickstream"}},
              {core::Layer::kAnalytics,
               {"Flower/Storm", "CpuUtilization", "storm"}},
              {core::Layer::kStorage,
               {"Flower/DynamoDB", "ConsumedWriteCapacityUnits",
                "aggregates"}}};
          health->SetDependencyEdges(core::ToHealthEdges(
              dep_analyzer.AnalyzeAll(metrics, lm, 0.0, sim.Now())));
          return true;
        });
  }

  double horizon = hours * kHour;
  sim.RunUntil(horizon);

  // Summary.
  auto& flow = *managed->flow;
  TablePrinter summary({"metric", "value"});
  summary.AddRow({"controller", core::ControllerKindToString(*kind)});
  summary.AddRow({"simulated hours", TablePrinter::Num(hours, 1)});
  summary.AddRow({"events generated",
                  std::to_string(flow.generator()->total_generated())});
  double drop_pct =
      flow.generator()->total_generated() > 0
          ? 100.0 * static_cast<double>(flow.generator()->total_dropped()) /
                static_cast<double>(flow.generator()->total_generated())
          : 0.0;
  summary.AddRow({"drop rate %", TablePrinter::Num(drop_pct, 3)});
  summary.AddRow({"tuples acked",
                  std::to_string(flow.cluster().total_acked())});
  summary.AddRow({"final shards",
                  std::to_string(flow.stream().shard_count())});
  summary.AddRow({"final workers",
                  std::to_string(flow.cluster().worker_count())});
  summary.AddRow({"final WCU",
                  TablePrinter::Num(flow.table().provisioned_wcu(), 0)});
  auto state = managed->manager->GetState(core::Layer::kAnalytics);
  const TimeSeries sensed = state.ok() ? (*state)->sensed() : TimeSeries();
  if (!sensed.empty()) {
    NoteTraceRetention(*(*state)->log);
    auto quality = control::EvaluateControl(
        sensed.Window(30.0 * kMinute, horizon), (*state)->actuations(),
        *reference_or, 15.0, horizon);
    if (quality.ok()) {
      summary.AddRow({"analytics out-of-band %",
                      TablePrinter::Num(
                          100.0 * quality->violation_fraction, 1)});
      summary.AddRow({"analytics overload %",
                      TablePrinter::Num(
                          100.0 * quality->overload_fraction, 1)});
      summary.AddRow(
          {"analytics MAE", TablePrinter::Num(quality->mean_abs_error, 1)});
      summary.AddRow({"resizes",
                      std::to_string(quality->actuation_changes)});
    }
  }
  summary.Print(std::cout);

  if (!flags.GetBool("quiet")) {
    core::CrossPlatformMonitor monitor(&metrics);
    monitor.Watch({"Flower/Kinesis", "WriteUtilization", "clickstream"});
    monitor.Watch({"Flower/Kinesis", "ShardCount", "clickstream"});
    monitor.Watch({"Flower/Storm", "CpuUtilization", "storm"});
    monitor.Watch({"Flower/Storm", "WorkerCount", "storm"});
    monitor.Watch({"Flower/DynamoDB", "WriteUtilization", "aggregates"});
    monitor.RenderDashboard(std::cout, std::max(0.0, horizon - kHour),
                            horizon, /*with_charts=*/true);
  }

  std::string csv_out = flags.GetString("csv-out", "");
  if (!csv_out.empty()) {
    std::ofstream out(csv_out);
    if (!out) {
      std::cerr << "cannot write " << csv_out << "\n";
      return 1;
    }
    core::CrossPlatformMonitor monitor(&metrics);
    monitor.WatchNamespace("");
    monitor.DumpCsv(out, 0.0, horizon);
    std::cout << "\nwrote metric CSV to " << csv_out << "\n";
  }

  if (!trace_out.empty()) {
    Status st = telemetry.ExportTrace(trace_out);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote Chrome trace (" << telemetry.spans().size()
              << " spans, " << telemetry.spans().evicted() << " evicted) to "
              << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    Status st = telemetry.ExportJsonl(metrics_out, horizon);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote " << telemetry.decisions().size()
              << " decision records + metrics snapshot to " << metrics_out
              << "\n";
  }
  if (health != nullptr) {
    Status st = health->ExportJsonl(health_out);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote health state (" << health->Statuses().size()
              << " SLOs, " << health->ActiveAlerts().size()
              << " active alerts, " << health->reports().size()
              << " reports) to " << health_out << "\n";
  }
  if (!openmetrics_out.empty()) {
    Status st = obs::ExportToFile(openmetrics_out, [&](std::ostream& os) {
      obs::WriteSnapshotOpenMetrics(os, telemetry.metrics().Snapshot());
    });
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "wrote OpenMetrics snapshot to " << openmetrics_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n" << kUsage;
    return 2;
  }
  if (flags->GetBool("help")) {
    std::cout << kUsage;
    return 0;
  }
  auto unknown = flags->UnknownKeys(
      {"controller", "workload", "trace", "rate", "amplitude",
       "period-hours", "hours", "reference", "monitoring-period", "seed",
       "seeds", "threads", "warm-start", "stall-generations", "csv-out",
       "trace-out", "metrics-out", "health-out",
       "openmetrics-out", "quiet", "help", "fleet", "fleet-tenants",
       "fleet-budget", "fleet-period", "fleet-threads",
       "fleet-tenant-period-jitter", "fleet-report-out",
       "fleet-capture-dir", "fleet-fault"});
  if (!unknown.empty()) {
    std::cerr << "unknown flag: --" << unknown.front() << "\n" << kUsage;
    return 2;
  }
  // Every run mode simulates --hours: a non-finite horizon never ends,
  // and a zero one leaves nothing to report.
  auto hours = flags->GetDouble("hours", 4.0);
  if (!hours.ok() || !(*hours > 0.0) || !std::isfinite(*hours)) {
    std::cerr << "--hours expects a finite number > 0\n";
    return 2;
  }
  if (flags->GetBool("fleet")) return RunFleet(*flags);
  auto seeds = flags->GetInt("seeds", 1);
  if (!seeds.ok() || *seeds < 1) {
    std::cerr << "--seeds expects a positive integer\n";
    return 2;
  }
  if (*seeds > 1) return RunReplicated(*flags, *seeds);
  return RunOrDie(*flags);
}
