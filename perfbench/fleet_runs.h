// Whole-fleet runs: the untraced FleetManager run every end-to-end
// metric comes from, and the traced 1-thread sweep that re-drives the
// same fleet through FlowPartition + BudgetArbiter with a span around
// every call.
#ifndef FLOWERBENCH_FLEET_RUNS_H_
#define FLOWERBENCH_FLEET_RUNS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/resource_share.h"

namespace flowerbench {

/// One (tenant, window) row: a tenant-period outcome.
struct WindowRow {
  double open = 0.0, close = 0.0;
  double demand = 0.0, grant = 0.0, spend = 0.0;
  uint64_t steps = 0;
  bool conserved = false;
  bool uncontended = false;
};

/// Output checks of one fleet run, shared by both sweeps.
struct RunChecks {
  uint64_t rows = 0;         ///< Tenant-period rows (operations).
  uint64_t failed_rows = 0;  ///< Rows that broke a check.
  uint64_t windows = 0;      ///< Distinct (open, close) report windows.
  uint64_t contended_windows = 0;
  std::string first_failure;  ///< Empty when every check passed.
};

struct FleetRunResult {
  flower::Status status = flower::Status::OK();
  double setup_s = 0.0;   ///< First AddTenant through Start.
  double runfor_s = 0.0;  ///< Both RunFor calls.
  double flow_sim_sec_per_wall_sec = 0.0;
  double rss_checkpoint_kib = 0.0, rss_end_kib = 0.0, peak_rss_kib = 0.0;
  RunChecks checks;
  std::string digest_hash;
  flower::fleet::FleetSweepStats sweep;
  uint64_t events = 0;  ///< Simulation events across all partitions.
  uint64_t steps = 0;
  /// Re-plan counters summed over partitions (hits, misses, evaluations).
  flower::core::PlannerCounters planner;
  /// Per-tenant rows in (tenant, open) order, and per-partition digests
  /// (AppendDigest), kept for the traced run's fidelity check.
  std::vector<std::vector<WindowRow>> rows;
  std::vector<std::string> partition_digests;
};

/// Runs the workload through fleet::FleetManager at `threads`.
FleetRunResult RunFleetManager(const WorkloadSpec& w, uint64_t seed,
                               size_t threads, bool keep_detail);

/// Span totals and per-call samples of the traced sweep.
struct TracedSweepResult {
  flower::Status status = flower::Status::OK();
  double create_s = 0.0;   ///< Σ FlowPartition::Create.
  double advance_s = 0.0;  ///< Σ FlowPartition::AdvanceTo.
  // Per-event spans inside the advances (seconds): events that took a
  // control step, ran a re-plan, or did the flow's service work.
  double control_s = 0.0;
  double replan_s = 0.0;
  double services_s = 0.0;
  uint64_t sentinels = 0;  ///< Stepping sentinels (not flow events).
  double sweep_s = 0.0;    ///< Wall time of the sweeps (advance+demand+arb).
  std::vector<double> demand_s;     ///< Per boundary demand read.
  std::vector<double> arbitrate_s;  ///< Per arbitration event.
  uint64_t arbitrate_calls = 0;
  uint64_t contended_calls = 0;
  uint64_t events = 0;
  uint64_t steps = 0;
  double flow_sim_sec_per_wall_sec = 0.0;
  std::vector<std::vector<WindowRow>> rows;
  std::vector<std::string> partition_digests;
  /// Per-tenant grant sequence (window order) for the re-plan probe.
  std::vector<std::vector<double>> grants;
};

TracedSweepResult RunTracedSweep(const WorkloadSpec& w, uint64_t seed);

/// Compares the traced sweep against the untraced 1-thread run: event,
/// step and grant counts, every window row, and every partition digest.
/// Returns an empty string when they agree, else the first difference.
std::string CompareFidelity(const FleetRunResult& ref,
                            const TracedSweepResult& traced);

}  // namespace flowerbench

#endif  // FLOWERBENCH_FLEET_RUNS_H_
