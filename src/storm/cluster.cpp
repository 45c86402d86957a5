#include "storm/cluster.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace flower::storm {

namespace {

constexpr const char* kNamespace = "Flower/Storm";

/// Buffers that carry tuples only within one tick. They belong to the
/// thread running the tick, not to a cluster: a fleet runs one cluster
/// per tenant on a few workers, and buffers each would hold a tick's
/// volume of memory per tenant. Each is empty when a tick ends (bolts
/// run in topological order and a tick never re-enters), so clusters
/// ticking in turn on one thread share them, and a warm thread's tick
/// never allocates (see bench/perf_micro's zero-allocation guard).
struct TickScratch {
  /// One spout's pull.
  std::vector<Tuple> pulled;
  /// Outputs of a bolt with no child (discarded) or with several
  /// (copied to each child after the bolt's turn). A bolt with one
  /// child writes straight into that child's arrivals.
  VecDeque<Tuple> emitted;
  /// Arrivals of each bolt, by bolt index, while its queue is empty.
  std::vector<VecDeque<Tuple>> arrivals;
};

TickScratch& ThreadTickScratch() {
  thread_local TickScratch scratch;
  return scratch;
}

}  // namespace

Cluster::Cluster(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
                 ec2::Fleet* fleet, ClusterConfig config)
    : sim_(sim), metrics_(metrics), fleet_(fleet),
      config_(std::move(config)), jitter_rng_(config_.jitter_seed) {
  Status st = sim_->SchedulePeriodic(
      sim_->Now() + config_.tick_period_sec, config_.tick_period_sec, [this] {
        Tick();
        return true;
      });
  FLOWER_CHECK(st.ok()) << st.ToString();
  if (metrics_ != nullptr) {
    st = sim_->SchedulePeriodic(
        sim_->Now() + config_.metrics_period_sec, config_.metrics_period_sec,
        [this] {
          PublishMetrics();
          return true;
        });
    FLOWER_CHECK(st.ok()) << st.ToString();
  }
}

Status Cluster::Submit(std::shared_ptr<Topology> topology) {
  if (topology_ != nullptr) {
    return Status::AlreadyExists("Cluster '" + config_.name +
                                 "' already runs a topology");
  }
  if (topology == nullptr || !topology->HasSpout()) {
    return Status::InvalidArgument("Submit: topology missing a spout");
  }
  topology_ = std::move(topology);
  topology_->submitted_ = true;
  return Status::OK();
}

Status Cluster::SetWorkerCount(int n) {
  if (n < 1) {
    return Status::InvalidArgument("SetWorkerCount: need at least 1 worker");
  }
  return fleet_->SetDesiredCount(n);
}

void Cluster::Tick() {
  if (topology_ == nullptr) return;
  SimTime now = sim_->Now();
  double budget = fleet_->TotalComputeCapacity() *
                  config_.usable_capacity_fraction * config_.tick_period_sec;
  const double initial_budget = budget;
  if (initial_budget <= 0.0) {
    last_tick_cpu_pct_ = 100.0;  // No capacity: fully saturated.
    period_cpu_sum_ += last_tick_cpu_pct_;
    ++period_ticks_;
    return;
  }
  Topology& topo = *topology_;

  // Execution-cost noise (JIT/GC/cache and noisy neighbours): AR(1)
  // with stationary std dev cost_jitter, bounded so costs stay
  // positive. Correlated across ticks so that per-minute averages keep
  // realistic variance.
  double cost_factor = 1.0;
  if (config_.cost_jitter > 0.0) {
    double phi = std::clamp(config_.cost_jitter_phi, 0.0, 0.999);
    double innovation_sd =
        config_.cost_jitter * std::sqrt(1.0 - phi * phi);
    jitter_state_ =
        phi * jitter_state_ + jitter_rng_.Normal(0.0, innovation_sd);
    cost_factor = std::max(0.4, 1.0 + jitter_state_);
  }

  // Where a bolt's arrivals for this tick go: behind its backlog when
  // it has one, else into scratch, from which it runs and queues only
  // what it leaves over. Either way the bolt sees its tuples in arrival
  // order. A bolt's queue changes only on its own turn, after its last
  // arrival, so the choice holds for the whole tick.
  TickScratch& scratch = ThreadTickScratch();
  if (scratch.arrivals.size() < topo.bolts_.size()) {
    scratch.arrivals.resize(topo.bolts_.size());
  }
  auto inbox = [&topo, &scratch](size_t bolt) {
    VecDeque<Tuple>& queue = topo.bolts_[bolt].queue;
    return queue.empty() ? &scratch.arrivals[bolt] : &queue;
  };

  // (a) Spout pulls, unless backpressure holds them back. The per-tick
  // batch limit is shared evenly across spouts.
  if (topo.PendingTuples() < config_.max_pending_tuples &&
      !topo.spouts_.empty()) {
    size_t room = config_.max_pending_tuples - topo.PendingTuples();
    size_t share = std::max<size_t>(
        1, std::min(config_.spout_batch_limit, room) / topo.spouts_.size());
    std::vector<Tuple>& pulled = scratch.pulled;
    for (size_t si = 0; si < topo.spouts_.size(); ++si) {
      auto& spout = topo.spouts_[si];
      size_t max_pull = share;
      // The spout also costs CPU; bound the pull by remaining budget.
      double spout_cost = spout.cost * cost_factor;
      if (spout_cost > 0.0) {
        max_pull =
            std::min(max_pull, static_cast<size_t>(budget / spout_cost));
      }
      if (max_pull == 0) continue;
      pulled.clear();
      spout.fn(max_pull, &pulled);
      budget -= static_cast<double>(pulled.size()) * spout_cost;
      // Stamp the source once in the pull buffer, then hand the whole
      // span to each subscribing bolt — one bulk copy per subscriber
      // instead of a per-tuple copy per bolt scan.
      for (Tuple& t : pulled) t.source = static_cast<int32_t>(si);
      for (size_t cj : spout.subscribers) {
        inbox(cj)->AppendRange(pulled.data(), pulled.size());
      }
    }
    pulled.clear();
  }

  // (b) Run bolts in topology order within the budget. Each contiguous
  // run of a bolt's input goes to the bolt as one batch.
  for (size_t bi = 0; bi < topo.bolts_.size(); ++bi) {
    Topology::BoltNode& bolt = topo.bolts_[bi];
    VecDeque<Tuple>& in = *inbox(bi);
    const double cost = bolt.spec.cpu_cost_per_tuple * cost_factor;
    const bool is_leaf = bolt.children.empty();
    VecDeque<Tuple>* out = bolt.children.size() == 1
                               ? inbox(bolt.children[0])
                               : &scratch.emitted;
    uint64_t executed_n = 0;
    uint64_t acked_n = 0;
    double latency_sum = 0.0;
    while (!in.empty() && budget >= cost) {
      const Tuple* run = &in.front();
      const size_t run_n = in.FrontRun();
      // Admission subtracts the cost once per tuple: a fused
      // `admitted * cost` would round differently and change how many
      // tuples fit a tick.
      double left = budget;
      size_t admitted = 0;
      while (admitted < run_n && left >= cost) {
        left -= cost;
        ++admitted;
      }
      Status st;
      const size_t done =
          bolt.spec.logic->ExecuteBatch(run, admitted, now, out, &st);
      if (done < admitted) {
        // Storage backpressure: the tuple at `done` stays queued and
        // this bolt stops for the rest of the tick. Charge only the
        // tuples that ran.
        left = budget;
        for (size_t i = 0; i < done; ++i) left -= cost;
        ++total_sink_throttles_;
      }
      budget = left;
      if (is_leaf) {
        for (size_t i = 0; i < done; ++i) {
          double latency = now - run[i].origin_time;
          latency_sum += latency;
          period_latency_sample_.Add(latency);
        }
        acked_n += done;
      }
      in.PopFront(done);
      executed_n += done;
      if (done < admitted) break;
    }
    if (&in != &bolt.queue) {
      // Arrivals the bolt did not run become its backlog.
      bolt.queue.AppendAll(in);
      in.clear();
    }
    if (out == &scratch.emitted) {
      for (size_t cj : bolt.children) inbox(cj)->AppendAll(scratch.emitted);
      scratch.emitted.clear();
    }
    bolt.executed += executed_n;
    total_executed_ += executed_n;
    total_acked_ += acked_n;
    period_acked_ += acked_n;
    period_latency_sum_ += latency_sum;
  }

  last_tick_cpu_pct_ =
      100.0 * (initial_budget - budget) / initial_budget;
  period_cpu_sum_ += last_tick_cpu_pct_;
  ++period_ticks_;
}

void Cluster::PublishMetrics() {
  SimTime now = sim_->Now();
  auto put = [&](const char* name, double v) {
    Status st =
        metrics_->Put({kNamespace, name, config_.name}, now, v);
    FLOWER_CHECK(st.ok()) << st.ToString();
  };
  double cpu = period_ticks_ > 0
                   ? period_cpu_sum_ / static_cast<double>(period_ticks_)
                   : 0.0;
  put("CpuUtilization", cpu);
  put("WorkerCount", static_cast<double>(worker_count()));
  put("CompleteLatency",
      period_acked_ > 0
          ? period_latency_sum_ / static_cast<double>(period_acked_)
          : 0.0);
  // P99 from a sorted copy of the reservoir. The copy lives in scratch
  // owned by the calling thread: a fleet runs one cluster per tenant on
  // a few workers, and a buffer each would hold a reservoir's worth of
  // memory per tenant.
  thread_local std::vector<double> sorted;
  const std::vector<double>& sample = period_latency_sample_.sample();
  sorted.assign(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  put("CompleteLatencyP99", PercentileOfSorted(sorted, 99.0).ValueOr(0.0));
  period_cpu_sum_ = 0.0;
  period_ticks_ = 0;
  period_latency_sum_ = 0.0;
  period_acked_ = 0;
  period_latency_sample_.Reset();
}

}  // namespace flower::storm
