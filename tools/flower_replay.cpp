// flower_replay — deterministic postmortem replay of a capture bundle.
//
// A fleet run with flight-recorder capture on dumps a self-contained
// bundle (<tenant>.json) when a burn-rate alert fires. This tool
// reconstructs that tenant as a solo partition, re-runs it to the
// trigger time with full-fidelity telemetry forced on, and compares
// the replayed control-decision chain against the recording:
//
//   flower_replay --bundle=bundles/tenant-0003.json \
//       --trace-out=trace.json --health-out=health.jsonl \
//       --decisions-out=digest.txt
//
// Exit code 0 when the replay matches the capture byte-for-byte,
// 2 when the divergence checker finds a mismatch, 1 on errors.

#include <iostream>
#include <string>

#include "fleet/replay_harness.h"
#include "obs/exporters.h"
#include "obs/replay/bundle.h"
#include "obs/replay/divergence.h"
#include "tools/flag_parser.h"

namespace flower {
namespace {

constexpr const char* kUsage = R"(flower_replay — postmortem replay driver

Flags:
  --bundle=FILE.json    capture bundle to replay (required)
  --trace-out=FILE      write the replay's causal control spans as Chrome
                        trace_event JSON
  --metrics-out=FILE    write decision records + metrics snapshot JSONL
  --health-out=FILE     write the replayed HealthMonitor state JSONL
  --decisions-out=FILE  write the canonical control-decision digest text
  --quiet               verdict only
  --help                this text

Exit codes: 0 = replay matches the capture, 2 = divergence detected,
1 = error (unreadable bundle, malformed spec, export failure).
)";

/// Where a replay writes the full-fidelity telemetry the original
/// (record-cheap) fleet run had disabled.
struct ReplayCliOptions {
  std::string bundle_path;
  std::string trace_out;      ///< Causal spans as Chrome trace JSON.
  std::string metrics_out;    ///< Decision records + metrics snapshot JSONL.
  std::string health_out;     ///< HealthMonitor state JSONL.
  std::string decisions_out;  ///< Canonical control-decision digest text.
  bool quiet = false;
};

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

int RunReplayCli(const ReplayCliOptions& options) {
  auto bundle = obs::replay::LoadBundleJson(options.bundle_path);
  if (!bundle.ok()) {
    std::cerr << bundle.status() << "\n";
    return 1;
  }
  auto harness = fleet::ReplayHarness::Create(std::move(*bundle));
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

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n" << flower::kUsage;
    return 1;
  }
  if (flags->GetBool("help")) {
    std::cout << flower::kUsage;
    return 0;
  }
  auto unknown = flags->UnknownKeys({"bundle", "trace-out", "metrics-out",
                                     "health-out", "decisions-out", "quiet",
                                     "help"});
  if (!unknown.empty()) {
    std::cerr << "unknown flag: --" << unknown.front() << "\n"
              << flower::kUsage;
    return 1;
  }
  flower::ReplayCliOptions options;
  options.bundle_path = flags->GetString("bundle", "");
  if (options.bundle_path.empty()) {
    std::cerr << "--bundle is required\n" << flower::kUsage;
    return 1;
  }
  options.trace_out = flags->GetString("trace-out", "");
  options.metrics_out = flags->GetString("metrics-out", "");
  options.health_out = flags->GetString("health-out", "");
  options.decisions_out = flags->GetString("decisions-out", "");
  options.quiet = flags->GetBool("quiet");
  return flower::RunReplayCli(options);
}
