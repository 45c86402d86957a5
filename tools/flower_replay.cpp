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

#include "tools/flag_parser.h"
#include "tools/replay_runner.h"

namespace {

constexpr const char* kUsage = R"(flower_replay — postmortem replay driver

Flags:
  --bundle=FILE.json    capture bundle to replay (required)
  --threads=N           NSGA-II solver threads for the solo re-plan; the
                        replayed digest is identical at any N        [1]
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

}  // namespace

int main(int argc, char** argv) {
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n" << kUsage;
    return 1;
  }
  if (flags->GetBool("help")) {
    std::cout << kUsage;
    return 0;
  }
  auto unknown = flags->UnknownKeys({"bundle", "threads", "trace-out",
                                     "metrics-out", "health-out",
                                     "decisions-out", "quiet", "help"});
  if (!unknown.empty()) {
    std::cerr << "unknown flag: --" << unknown.front() << "\n" << kUsage;
    return 1;
  }
  flower::tools::ReplayCliOptions options;
  options.bundle_path = flags->GetString("bundle", "");
  if (options.bundle_path.empty()) {
    std::cerr << "--bundle is required\n" << kUsage;
    return 1;
  }
  auto threads = flags->GetInt("threads", 1);
  if (!threads.ok() || *threads < 1) {
    std::cerr << "--threads expects a positive integer\n";
    return 1;
  }
  options.threads = static_cast<size_t>(*threads);
  options.trace_out = flags->GetString("trace-out", "");
  options.metrics_out = flags->GetString("metrics-out", "");
  options.health_out = flags->GetString("health-out", "");
  options.decisions_out = flags->GetString("decisions-out", "");
  options.quiet = flags->GetBool("quiet");
  return flower::tools::RunReplayCli(options);
}
