#ifndef FLOWER_TOOLS_REPLAY_RUNNER_H_
#define FLOWER_TOOLS_REPLAY_RUNNER_H_

#include <cstddef>
#include <string>

namespace flower::tools {

/// Options for one postmortem replay: which bundle, how many solver
/// threads, and where to export the full-fidelity telemetry the
/// original (record-cheap) fleet run had disabled.
struct ReplayCliOptions {
  std::string bundle_path;
  size_t threads = 1;
  std::string trace_out;      ///< Causal spans as Chrome trace JSON.
  std::string metrics_out;    ///< Decision records + metrics snapshot JSONL.
  std::string health_out;     ///< HealthMonitor state JSONL.
  std::string decisions_out;  ///< Canonical control-decision digest text.
  bool quiet = false;
};

/// Loads the bundle, reconstructs the tenant solo, re-runs to the
/// trigger, runs the divergence checker, and writes any requested
/// exports. Returns a process exit code: 0 replay matched the capture,
/// 2 divergence detected, 1 operational error (unreadable bundle,
/// malformed spec, export failure).
int RunReplayCli(const ReplayCliOptions& options);

}  // namespace flower::tools

#endif  // FLOWER_TOOLS_REPLAY_RUNNER_H_
