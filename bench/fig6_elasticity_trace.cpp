// Reproduces paper Fig. 6: the elasticity control and monitoring view —
// per-layer provisioned capacity and utilization traces while Flower's
// adaptive controllers react to workload dynamics (demo step 3).
//
// Scenario: the managed click-stream flow runs for 6 simulated hours
// under a diurnal load with a flash crowd; each layer's controller
// (adaptive gain, reference 60% utilization) resizes its resource. The
// bench prints the consolidated dashboard (the text stand-in for the
// Fig. 6 UI), the per-layer traces, and a monitoring-period ablation
// (the "monitoring period" knob the demo lets the audience adjust).

#include <cmath>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "control/metrics.h"
#include "core/monitor.h"

namespace flower {
namespace {

struct RunResult {
  double mean_cpu = 0.0;
  double violation_pct = 0.0;
  int min_workers = 1 << 30;
  int max_workers = 0;
  double drop_rate = 0.0;
  std::vector<double> cpu_trace;
  std::vector<double> worker_trace;
  std::vector<double> shard_trace;
  std::vector<double> wcu_trace;
};

std::shared_ptr<workload::ArrivalProcess> Fig6Load() {
  auto arrival = std::make_shared<workload::CompositeArrival>();
  arrival->Add(std::make_shared<workload::DiurnalArrival>(900.0, 700.0,
                                                          4.0 * kHour));
  arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
      0.0, 1800.0, 2.0 * kHour, 40.0 * kMinute, 5.0 * kMinute));
  return arrival;
}

Result<RunResult> RunManaged(double monitoring_period_sec, bool verbose) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  core::LayerElasticityConfig analytics;
  analytics.monitoring_period_sec = monitoring_period_sec;
  analytics.monitoring_window_sec = 2.0 * monitoring_period_sec;
  analytics.max_resource = 40.0;
  core::LayerElasticityConfig ingestion;
  ingestion.monitoring_period_sec = monitoring_period_sec;
  ingestion.monitoring_window_sec = 2.0 * monitoring_period_sec;
  ingestion.max_resource = 64.0;
  core::LayerElasticityConfig storage;
  storage.monitoring_period_sec = monitoring_period_sec;
  storage.monitoring_window_sec = 2.0 * monitoring_period_sec;
  storage.min_resource = 5.0;
  storage.max_resource = 2000.0;

  FLOWER_ASSIGN_OR_RETURN(
      core::ManagedFlow mf,
      core::FlowBuilder()
          .WithFlowConfig(bench::CanonicalFlow())
          .WithIngestion(ingestion)
          .WithAnalytics(analytics)
          .WithStorage(storage)
          .WithWorkload(Fig6Load(), bench::CanonicalWorkload())
          .WithSeed(1234)
          .Build(&sim, &metrics));

  const double kHorizon = 6.0 * kHour;
  RunResult out;
  // Sample capacity/CPU every minute for the trace.
  Status st = sim.SchedulePeriodic(kMinute, kMinute, [&] {
    out.worker_trace.push_back(
        static_cast<double>(mf.flow->cluster().worker_count()));
    out.shard_trace.push_back(
        static_cast<double>(mf.flow->stream().shard_count()));
    out.wcu_trace.push_back(mf.flow->table().provisioned_wcu());
    out.min_workers =
        std::min(out.min_workers, mf.flow->cluster().worker_count());
    out.max_workers =
        std::max(out.max_workers, mf.flow->cluster().worker_count());
    return sim.Now() < kHorizon;
  });
  FLOWER_RETURN_NOT_OK(st);
  sim.RunUntil(kHorizon);

  FLOWER_ASSIGN_OR_RETURN(const core::LayerControlState* analytics_state,
                          mf.manager->GetState(core::Layer::kAnalytics));
  const TimeSeries sensed = analytics_state->sensed();
  // Skip the first 30 min (cold start) for quality metrics.
  const TimeSeries settled = sensed.Window(30.0 * kMinute, kHorizon);
  FLOWER_ASSIGN_OR_RETURN(
      control::ControlQuality q,
      control::EvaluateControl(settled, analytics_state->actuations(), 60.0,
                               15.0, kHorizon));
  {
    auto vals = settled.Values();
    double sum = 0.0;
    for (double v : vals) sum += v;
    out.mean_cpu = vals.empty() ? 0.0 : sum / static_cast<double>(vals.size());
    out.cpu_trace = sensed.Values();
  }
  out.violation_pct = 100.0 * q.violation_fraction;
  out.drop_rate =
      mf.flow->generator()->total_generated() > 0
          ? static_cast<double>(mf.flow->generator()->total_dropped()) /
                static_cast<double>(mf.flow->generator()->total_generated())
          : 0.0;

  if (verbose) {
    std::cout << AsciiChart(out.cpu_trace, 7, 72,
                            "Analytics CPU % (reference 60%)");
    std::cout << AsciiChart(out.worker_trace, 7, 72,
                            "Analytics capacity: Storm worker VMs");
    std::cout << AsciiChart(out.shard_trace, 7, 72,
                            "Ingestion capacity: Kinesis shards");
    std::cout << AsciiChart(out.wcu_trace, 7, 72,
                            "Storage capacity: DynamoDB WCU");
    core::CrossPlatformMonitor monitor(&metrics);
    monitor.Watch({"Flower/Kinesis", "WriteUtilization", "clickstream"});
    monitor.Watch({"Flower/Kinesis", "ShardCount", "clickstream"});
    monitor.Watch({"Flower/Storm", "CpuUtilization", "storm"});
    monitor.Watch({"Flower/Storm", "WorkerCount", "storm"});
    monitor.Watch({"Flower/DynamoDB", "WriteUtilization", "aggregates"});
    monitor.Watch(
        {"Flower/DynamoDB", "ProvisionedWriteCapacityUnits", "aggregates"});
    std::cout << "\nAll-in-one-place dashboard over the last hour:\n";
    monitor.RenderDashboard(std::cout, kHorizon - kHour, kHorizon);
  }
  return out;
}

int Run() {
  bench::Header(
      "FIG6  Live elasticity control traces (paper Fig. 6 / demo step 3)");
  auto main_run = RunManaged(60.0, /*verbose=*/true);
  if (!main_run.ok()) {
    std::cerr << main_run.status() << "\n";
    return 1;
  }

  // Ablation: monitoring period (the wizard's knob).
  std::cout << "\nMonitoring-period ablation (analytics layer):\n";
  TablePrinter table({"period (s)", "mean CPU %", "out-of-band %",
                      "workers min..max", "drop rate %"});
  bool ok = true;
  for (double period : {30.0, 60.0, 120.0, 300.0}) {
    auto r = period == 60.0 ? main_run : RunManaged(period, false);
    if (!r.ok()) continue;
    table.AddRow({TablePrinter::Num(period, 0),
                  TablePrinter::Num(r->mean_cpu, 1),
                  TablePrinter::Num(r->violation_pct, 1),
                  std::to_string(r->min_workers) + ".." +
                      std::to_string(r->max_workers),
                  TablePrinter::Num(100.0 * r->drop_rate, 2)});
  }
  table.Print(std::cout);

  ok &= bench::Verdict(
      "mean analytics CPU within 20 points of the 60% reference",
      std::fabs(main_run->mean_cpu - 60.0) <= 20.0);
  ok &= bench::Verdict("capacity followed the load (workers varied >= 3x)",
                       main_run->max_workers >= 3 * main_run->min_workers);
  ok &= bench::Verdict("ingestion drop rate below 5%",
                       main_run->drop_rate < 0.05);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main() { return flower::Run(); }
