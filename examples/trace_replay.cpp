// Trace replay: record a workload's rate profile to CSV, reload it, and
// drive the managed flow from the replayed trace — the workflow for
// re-running production traffic against new elasticity settings.
//
//   $ ./build/examples/trace_replay [trace.csv]
//
// With no argument, a synthetic "production" trace is generated and
// written to a temporary file first, so the example is self-contained.

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>

#include "common/units.h"
#include "core/flow_builder.h"
#include "core/monitor.h"
#include "workload/trace_io.h"

using namespace flower;

namespace {

// A bursty "production day" rate profile, 1-minute resolution.
TimeSeries SyntheticProductionTrace() {
  TimeSeries trace;
  Rng rng(99);
  for (double t = 0.0; t < 4 * kHour; t += kMinute) {
    double base = 700.0 + 500.0 * std::sin(2.0 * M_PI * t / (4 * kHour));
    double burst =
        (t > 1.5 * kHour && t < 1.8 * kHour) ? 1200.0 : 0.0;
    trace.AppendUnchecked(t, std::max(50.0, base + burst +
                                                rng.Normal(0.0, 30.0)));
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // mkstemp creates the file under a fresh name, so no other process
    // can claim the name between choosing and opening it.
    std::string name =
        (std::filesystem::temp_directory_path() / "flower_trace_XXXXXX")
            .string();
    int fd = mkstemp(name.data());
    if (fd < 0) {
      std::cerr << "cannot create a temporary trace file\n";
      return 1;
    }
    close(fd);
    path = name;
    Status st = workload::SaveRateTraceCsv(SyntheticProductionTrace(), path);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "Wrote synthetic production trace to " << path << "\n";
  }

  auto trace = workload::LoadRateTraceCsv(path);
  if (!trace.ok()) {
    std::cerr << "cannot load trace: " << trace.status() << "\n";
    return 1;
  }
  std::cout << "Loaded " << trace->size() << " samples spanning "
            << (trace->end_time() - trace->start_time()) / kHour
            << " hours\n";

  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  auto managed =
      core::FlowBuilder()
          .WithWorkload(std::make_shared<workload::TraceArrival>(*trace))
          .WithSeed(5)
          .Build(&sim, &metrics);
  if (!managed.ok()) {
    std::cerr << managed.status() << "\n";
    return 1;
  }
  double horizon = trace->end_time();
  sim.RunUntil(horizon);

  auto& flow = *managed->flow;
  std::cout << "\nReplay finished at t=" << horizon / kHour << "h:\n"
            << "  events generated : " << flow.generator()->total_generated()
            << "\n"
            << "  events dropped   : " << flow.generator()->total_dropped()
            << "\n"
            << "  final shards/VMs/WCU: " << flow.stream().shard_count()
            << "/" << flow.cluster().worker_count() << "/"
            << flow.table().provisioned_wcu() << "\n\n";

  core::CrossPlatformMonitor monitor(&metrics);
  monitor.Watch({"Flower/Kinesis", "IncomingRecords", "clickstream"});
  monitor.Watch({"Flower/Storm", "CpuUtilization", "storm"});
  monitor.Watch({"Flower/Storm", "WorkerCount", "storm"});
  monitor.RenderDashboard(std::cout, 0.0, horizon, /*with_charts=*/true);

  if (argc <= 1) std::remove(path.c_str());
  return 0;
}
