#ifndef FLOWER_STORM_CLUSTER_H_
#define FLOWER_STORM_CLUSTER_H_

#include <memory>
#include <string>

#include "cloudwatch/metric_store.h"
#include "common/random.h"
#include "common/reservoir.h"
#include "ec2/fleet.h"
#include "sim/simulation.h"
#include "storm/topology.h"

namespace flower::storm {

/// Configuration of a simulated Storm cluster.
struct ClusterConfig {
  std::string name = "storm";
  /// Scheduler tick: work is executed in discrete slices of this
  /// length (seconds). 1 s gives per-second CPU accounting.
  double tick_period_sec = 1.0;
  /// Max tuples pulled from the spout per tick (per-tick poll limit).
  size_t spout_batch_limit = 20000;
  /// Backpressure: the spout stops pulling while the topology has more
  /// than this many pending tuples (Storm's max.spout.pending).
  size_t max_pending_tuples = 50000;
  /// Fraction of worker capacity usable by topology work (the rest
  /// models OS/worker overhead).
  double usable_capacity_fraction = 0.9;
  /// Period of metric publication.
  double metrics_period_sec = 60.0;
  /// Multiplicative noise on tuple execution cost (stationary std dev
  /// as a fraction of the nominal cost), modelling JIT/GC/cache and
  /// noisy-neighbour variance on real workers. The noise follows an
  /// AR(1) process (see cost_jitter_phi) so it does not average away
  /// within one metric period. 0 disables.
  double cost_jitter = 0.08;
  /// Autocorrelation of the cost noise across ticks (0 = white).
  double cost_jitter_phi = 0.95;
  uint64_t jitter_seed = 1;
};

/// Simulated Storm cluster (the analytics layer).
///
/// Executes one Topology on the pooled compute capacity of an EC2
/// `Fleet`. Every scheduler tick the cluster (a) pulls tuples from the
/// spout unless backpressure is active, then (b) runs bolts in
/// topology order on their backlog and then on the tick's arrivals,
/// charging each bolt's per-tuple CPU cost against the tick's work
/// budget (capacity × tick). When offered work exceeds the budget, CPU
/// utilization saturates at 100% and queues grow — exactly the
/// overload signal Flower's analytics-layer controller watches.
///
/// A bolt's queue holds only what a tick leaves over (over budget or
/// throttled). Tuples that arrive and run within one tick pass through
/// buffers owned by the thread running the tick, so a cluster's memory
/// follows its backlog, not its per-tick volume.
///
/// Scaling the cluster = resizing the fleet (`SetWorkerCount`), which
/// takes effect after the fleet's boot delay.
///
/// Published metrics (namespace "Flower/Storm", dimension = cluster
/// name, one datapoint per metrics period), each with its readers:
///   CpuUtilization     — mean per-tick CPU, %: the analytics sensor,
///                        FIG2, EQ2, FIG6, flower-sim, chaos_recovery
///                        and the examples' dashboards and alarms
///   WorkerCount        — running workers: FIG6 and the dashboards
///   CompleteLatency    — mean spout-to-sink latency of the period's
///                        acked tuples, s: the monitoring dashboard
///   CompleteLatencyP99 — reservoir-sampled p99 of the same, s: CTRL
/// Pending tuples and sink throttles are accessors
/// (`topology()->PendingTuples()`, `total_sink_throttles()`).
class Cluster {
 public:
  /// `metrics` may be nullptr (no publication). The cluster schedules
  /// its own ticks on `sim` starting at the current simulated time.
  Cluster(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
          ec2::Fleet* fleet, ClusterConfig config);

  /// Submits the topology (exactly one; must have a spout). The
  /// topology then refuses new bolts.
  Status Submit(std::shared_ptr<Topology> topology);

  /// Rebalances the cluster to `n` workers (>= 1).
  Status SetWorkerCount(int n);

  int worker_count() const { return fleet_->running_count(); }
  int requested_worker_count() const { return fleet_->requested_count(); }

  /// CPU utilization (%) measured over the last completed tick.
  double LastTickCpuUtilizationPct() const { return last_tick_cpu_pct_; }

  uint64_t total_executed() const { return total_executed_; }
  uint64_t total_acked() const { return total_acked_; }
  uint64_t total_sink_throttles() const { return total_sink_throttles_; }
  const ClusterConfig& config() const { return config_; }
  const std::shared_ptr<Topology>& topology() const { return topology_; }

 private:
  void Tick();
  void PublishMetrics();

  sim::Simulation* sim_;
  cloudwatch::MetricStore* metrics_;
  ec2::Fleet* fleet_;
  ClusterConfig config_;
  std::shared_ptr<Topology> topology_;
  Rng jitter_rng_;
  double jitter_state_ = 0.0;  ///< AR(1) noise state.

  double last_tick_cpu_pct_ = 0.0;
  uint64_t total_executed_ = 0;
  uint64_t total_acked_ = 0;
  uint64_t total_sink_throttles_ = 0;

  // Period accumulators for metric publication.
  double period_cpu_sum_ = 0.0;
  size_t period_ticks_ = 0;
  double period_latency_sum_ = 0.0;
  uint64_t period_acked_ = 0;
  /// Reservoir of per-tuple complete latencies in the current period
  /// (for p99 publication without storing every ack).
  ReservoirSampler period_latency_sample_{1024, 97};
};

}  // namespace flower::storm

#endif  // FLOWER_STORM_CLUSTER_H_
