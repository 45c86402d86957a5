#include "tools/replay_runner.h"

#include <iostream>

#include "fleet/replay_harness.h"
#include "obs/exporters.h"
#include "obs/replay/bundle.h"
#include "obs/replay/divergence.h"

namespace flower::tools {

namespace {

Status WriteExports(const ReplayCliOptions& options,
                    fleet::FlowPartition& part, SimTime horizon) {
  obs::Telemetry& telemetry = part.telemetry();
  if (!options.trace_out.empty()) {
    FLOWER_RETURN_NOT_OK(telemetry.ExportTrace(options.trace_out));
    if (!options.quiet) {
      std::cout << "wrote Chrome trace (" << telemetry.spans().size()
                << " spans, " << telemetry.spans().evicted()
                << " evicted) to " << options.trace_out << "\n";
    }
  }
  if (!options.metrics_out.empty()) {
    FLOWER_RETURN_NOT_OK(telemetry.ExportJsonl(options.metrics_out, horizon));
    if (!options.quiet) {
      std::cout << "wrote " << telemetry.decisions().size()
                << " decision records + metrics snapshot to "
                << options.metrics_out << "\n";
    }
  }
  if (!options.health_out.empty()) {
    if (part.health() == nullptr) {
      return Status::FailedPrecondition(
          "replay: --health-out requires a bundle captured with "
          "capture.health_trigger");
    }
    FLOWER_RETURN_NOT_OK(part.health()->ExportJsonl(options.health_out));
    if (!options.quiet) {
      std::cout << "wrote health state (" << part.health()->Statuses().size()
                << " SLOs, " << part.health()->reports().size()
                << " reports) to " << options.health_out << "\n";
    }
  }
  if (!options.decisions_out.empty()) {
    FLOWER_RETURN_NOT_OK(
        obs::ExportToFile(options.decisions_out, [&part](std::ostream& os) {
          std::string digest;
          part.AppendDigest(&digest);
          os << digest;
        }));
    if (!options.quiet) {
      std::cout << "wrote control-decision digest to "
                << options.decisions_out << "\n";
    }
  }
  return Status::OK();
}

}  // namespace

int RunReplayCli(const ReplayCliOptions& options) {
  auto bundle = obs::replay::LoadBundleJson(options.bundle_path);
  if (!bundle.ok()) {
    std::cerr << bundle.status() << "\n";
    return 1;
  }
  fleet::ReplayOptions ropts;
  ropts.flow_solver_threads = options.threads == 0 ? 1 : options.threads;
  auto harness = fleet::ReplayHarness::Create(std::move(*bundle), ropts);
  if (!harness.ok()) {
    std::cerr << harness.status() << "\n";
    return 1;
  }
  const obs::replay::CaptureBundle& b = (*harness)->bundle();
  if (!options.quiet) {
    std::cout << "replaying tenant '" << b.tenant_id << "' (index "
              << b.tenant_index << ", seed " << b.seed << ") to trigger t="
              << b.trigger.time << " (" << b.trigger.reason << "), "
              << b.total_decisions << " recorded decisions, "
              << b.grants.size() << " grants, " << b.faults.size()
              << " scheduled faults\n";
  }
  Status st = (*harness)->Run();
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  obs::replay::DivergenceReport report = (*harness)->Check();
  st = WriteExports(options, (*harness)->partition(), b.trigger.time);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  if (!options.quiet || report.diverged) {
    std::cout << report.ToString();
  }
  return report.diverged ? 2 : 0;
}

}  // namespace flower::tools
