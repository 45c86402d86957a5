#include "layer_replay.h"

#include <algorithm>
#include <memory>

#include "cloudwatch/metric_store.h"
#include "dynamodb/table.h"
#include "ec2/fleet.h"
#include "flow/bolts.h"
#include "flow/flow.h"
#include "kinesis/stream.h"
#include "sim/simulation.h"
#include "storm/cluster.h"
#include "workload/arrival.h"
#include "workload/clickstream.h"

namespace flowerbench {

using flower::SimTime;
using flower::Status;

namespace {

/// Which layer ran during the current event step.
struct StepFlags {
  bool storm = false;
  bool arrival = false;
};

/// The arrival process a tenant partition builds (FlowPartition's own
/// mapping from TenantConfig).
std::shared_ptr<flower::workload::ArrivalProcess> MakeArrival(
    const flower::fleet::TenantConfig& t, double horizon_sec) {
  using flower::fleet::ArrivalPattern;
  namespace wl = flower::workload;
  switch (t.pattern) {
    case ArrivalPattern::kConstant:
      return std::make_shared<wl::ConstantArrival>(t.base_rate_per_sec);
    case ArrivalPattern::kDiurnal:
      return std::make_shared<wl::DiurnalArrival>(
          t.base_rate_per_sec, t.amplitude_per_sec, t.period_sec, t.phase_sec);
    case ArrivalPattern::kFlashCrowd:
      return std::make_shared<wl::FlashCrowdArrival>(
          t.base_rate_per_sec, t.amplitude_per_sec, t.phase_sec, t.period_sec);
    case ArrivalPattern::kMmpp:
      return std::make_shared<wl::MmppArrival>(
          t.base_rate_per_sec, t.base_rate_per_sec + t.amplitude_per_sec,
          t.period_sec, t.period_sec, horizon_sec, t.seed);
  }
  return std::make_shared<wl::ConstantArrival>(t.base_rate_per_sec);
}

/// Timing decorator over the library's arrival process: marks the
/// event step as generator work.
class FlaggedArrival final : public flower::workload::ArrivalProcess {
 public:
  FlaggedArrival(std::shared_ptr<flower::workload::ArrivalProcess> inner,
                 StepFlags* flags)
      : inner_(std::move(inner)), flags_(flags) {}
  std::string name() const override { return inner_->name(); }
  double RatePerSec(SimTime t) const override {
    flags_->arrival = true;
    return inner_->RatePerSec(t);
  }

 private:
  std::shared_ptr<flower::workload::ArrivalProcess> inner_;
  StepFlags* flags_;
};

/// Timing decorator over one of the library's bolts.
class TimedBolt final : public flower::storm::BoltLogic {
 public:
  TimedBolt(std::shared_ptr<flower::storm::BoltLogic> inner, double* total,
            StepFlags* flags)
      : inner_(std::move(inner)), total_(total), flags_(flags) {}
  Status Execute(const flower::storm::Tuple& input, SimTime now,
                 const std::function<void(flower::storm::Tuple)>& emit)
      override {
    flags_->storm = true;
    Clock::time_point t0 = Clock::now();
    Status st = inner_->Execute(input, now, emit);
    *total_ += SecondsSince(t0);
    return st;
  }

 private:
  std::shared_ptr<flower::storm::BoltLogic> inner_;
  double* total_;
  StepFlags* flags_;
};

/// The partition's flow shape for one tenant (FlowPartition::Create).
flower::flow::FlowConfig TenantFlowConfig(
    const flower::fleet::TenantConfig& t,
    const flower::fleet::PartitionConfig& pc) {
  flower::flow::FlowConfig fc;
  fc.name = t.id + "-flow";
  fc.stream.name = t.id + "-stream";
  fc.stream.initial_shards = t.initial_shards;
  fc.stream.max_shards = t.max_shards;
  fc.cluster.name = t.id + "-storm";
  fc.cluster.tick_period_sec = pc.storm_tick_period_sec;
  fc.table.name = t.id + "-table";
  fc.table.initial_wcu = t.initial_wcu;
  fc.table.max_wcu = t.max_wcu;
  fc.initial_workers = t.initial_workers;
  return fc;
}

flower::workload::ClickStreamConfig TenantClickConfig(
    const flower::fleet::PartitionConfig& pc) {
  flower::workload::ClickStreamConfig wl;
  wl.num_users = 1000;
  wl.num_urls = 100;
  wl.generator_instances = 1;
  wl.emit_period_sec = pc.workload_emit_period_sec;
  return wl;
}

/// Counts both pipelines must agree on.
struct PipelineCounts {
  uint64_t generated = 0, dropped = 0, incoming = 0, throttled = 0;
  uint64_t executed = 0, acked = 0, writes = 0, write_throttled = 0;
  uint64_t datapoints = 0, series = 0;
  bool operator==(const PipelineCounts&) const = default;
};

/// The component-built pipeline: DataAnalyticsFlow::Init's wiring in
/// its construction order, with decorators spliced in.
struct Pipeline {
  flower::sim::Simulation sim;
  flower::cloudwatch::MetricStore store;
  StepFlags flags;
  double get_s = 0.0, window_s = 0.0, persist_s = 0.0;
  std::unique_ptr<flower::kinesis::Stream> stream;
  std::unique_ptr<flower::ec2::Fleet> fleet;
  std::unique_ptr<flower::storm::Cluster> cluster;
  std::unique_ptr<flower::dynamodb::Table> table;
  std::shared_ptr<flower::storm::Topology> topology;
  std::shared_ptr<flower::flow::WindowCountBolt> window;
  std::unique_ptr<flower::workload::ClickStreamGenerator> generator;

  Status Build(const flower::flow::FlowConfig& fc,
               std::shared_ptr<flower::workload::ArrivalProcess> arrival,
               const flower::workload::ClickStreamConfig& wl, uint64_t seed) {
    namespace storm = flower::storm;
    stream = std::make_unique<flower::kinesis::Stream>(&sim, &store, fc.stream);
    fleet = std::make_unique<flower::ec2::Fleet>(
        &sim, fc.instance_type, fc.initial_workers, fc.worker_boot_delay_sec);
    cluster = std::make_unique<storm::Cluster>(&sim, &store, fleet.get(),
                                               fc.cluster);
    table = std::make_unique<flower::dynamodb::Table>(&sim, &store, fc.table);
    topology = std::make_shared<storm::Topology>(fc.name + "-topology");

    flower::kinesis::Stream* s = stream.get();
    auto scratch = std::make_shared<std::vector<flower::kinesis::Record>>();
    auto spout = [this, s, scratch](size_t max,
                                    std::vector<storm::Tuple>* out) {
      flags.storm = true;
      int shards = s->shard_count();
      if (shards <= 0 || max == 0) return;
      size_t per_shard = max / static_cast<size_t>(shards) + 1;
      for (int sh = 0; sh < shards && out->size() < max; ++sh) {
        scratch->clear();
        Clock::time_point t0 = Clock::now();
        Status st = s->GetRecordsInto(sh, per_shard, scratch.get());
        get_s += SecondsSince(t0);
        if (!st.ok()) continue;
        for (const flower::kinesis::Record& r : *scratch) {
          storm::Tuple t;
          t.origin_time = r.timestamp;
          t.entity_id = r.entity_id;
          t.size_bytes = r.size_bytes;
          t.value = 1.0;
          out->push_back(t);
          if (out->size() >= max) break;
        }
      }
    };
    FLOWER_RETURN_NOT_OK(
        topology->SetSpout("kinesis-spout", spout, fc.spout_cost));

    storm::BoltSpec parse;
    parse.name = "parse";
    parse.cpu_cost_per_tuple = fc.parse_cost;
    parse.logic = std::make_shared<storm::StatelessBolt>(1.0);
    FLOWER_RETURN_NOT_OK(topology->AddBolt(std::move(parse)));

    FLOWER_ASSIGN_OR_RETURN(
        flower::flow::SlidingWindowCounter counter,
        flower::flow::SlidingWindowCounter::Create(fc.window_sec,
                                                   fc.slide_sec));
    window = std::make_shared<flower::flow::WindowCountBolt>(
        std::move(counter));
    storm::BoltSpec win;
    win.name = "window-count";
    win.cpu_cost_per_tuple = fc.window_cost;
    win.logic = std::make_shared<TimedBolt>(window, &window_s, &flags);
    FLOWER_RETURN_NOT_OK(topology->AddBolt(std::move(win), "parse"));

    storm::BoltSpec persist;
    persist.name = "persist";
    persist.cpu_cost_per_tuple = fc.persist_cost;
    persist.logic = std::make_shared<TimedBolt>(
        std::make_shared<flower::flow::PersistBolt>(table.get()), &persist_s,
        &flags);
    FLOWER_RETURN_NOT_OK(topology->AddBolt(std::move(persist), "window-count"));
    FLOWER_RETURN_NOT_OK(cluster->Submit(topology));

    generator = std::make_unique<flower::workload::ClickStreamGenerator>(
        &sim, stream.get(),
        std::make_shared<FlaggedArrival>(std::move(arrival), &flags), wl,
        seed);
    return Status::OK();
  }
};

template <typename Flow>
PipelineCounts CountsOf(Flow& f, const flower::cloudwatch::MetricStore& m) {
  PipelineCounts c;
  c.generated = f.generator->total_generated();
  c.dropped = f.generator->total_dropped();
  c.incoming = f.stream->total_incoming();
  c.throttled = f.stream->total_throttled();
  c.executed = f.cluster->total_executed();
  c.acked = f.cluster->total_acked();
  c.writes = f.table->total_writes();
  c.write_throttled = f.table->total_throttled_writes();
  c.datapoints = m.total_datapoints();
  c.series = m.metric_count();
  return c;
}

/// Reference: the library's own DataAnalyticsFlow for the same config
/// and seed, run with RunUntil.
flower::Result<PipelineCounts> ReferenceCounts(
    const flower::flow::FlowConfig& fc,
    std::shared_ptr<flower::workload::ArrivalProcess> arrival,
    const flower::workload::ClickStreamConfig& wl, uint64_t seed,
    double end) {
  flower::sim::Simulation sim;
  flower::cloudwatch::MetricStore store;
  FLOWER_ASSIGN_OR_RETURN(
      std::unique_ptr<flower::flow::DataAnalyticsFlow> flow,
      flower::flow::DataAnalyticsFlow::Create(&sim, &store, fc));
  FLOWER_RETURN_NOT_OK(flow->AttachWorkload(std::move(arrival), wl, seed));
  sim.RunUntil(end);
  struct View {
    flower::workload::ClickStreamGenerator* generator;
    flower::kinesis::Stream* stream;
    flower::storm::Cluster* cluster;
    flower::dynamodb::Table* table;
  } v{flow->generator(), &flow->stream(), &flow->cluster(), &flow->table()};
  return CountsOf(v, store);
}

/// Kinesis put cost: the replay's record count re-put, batch by batch
/// at the generator's cadence, into a fresh stream of the same shape,
/// timing only the PutRecord calls.
double CalibratePuts(const flower::flow::FlowConfig& fc, uint64_t records,
                     uint64_t batches, double emit_period_sec) {
  if (records == 0 || batches == 0) return 0.0;
  flower::sim::Simulation sim;
  flower::kinesis::Stream stream(&sim, nullptr, fc.stream);
  double total = 0.0;
  uint64_t done = 0;
  for (uint64_t b = 0; b < batches; ++b) {
    sim.RunUntil(static_cast<double>(b + 1) * emit_period_sec);
    uint64_t upto = records * (b + 1) / batches;
    Clock::time_point t0 = Clock::now();
    for (; done < upto; ++done) {
      flower::kinesis::Record rec;
      rec.partition_key = done * 0x9e3779b97f4a7c15ULL;
      rec.entity_id = static_cast<int64_t>(done % 100);
      rec.size_bytes = 256;
      (void)stream.PutRecord(rec);
    }
    total += SecondsSince(t0);
  }
  return total;
}

}  // namespace

LayerReplayResult RunLayerReplay(const WorkloadSpec& w, uint64_t seed) {
  LayerReplayResult r;
  std::vector<flower::fleet::TenantConfig> tenants = MakeTenants(w, seed);
  size_t count = std::min(w.replay_tenants, tenants.size());
  double arrival_horizon = std::max(w.horizon_sec(), w.replay_horizon_sec);
  // Half a second past the horizon: no event of the flow lands there,
  // so the sentinel below never reorders a same-instant event.
  double end = w.replay_horizon_sec + 0.5;
  flower::fleet::PartitionConfig pc = MakeFleetConfig(w, 1).partition;
  flower::workload::ClickStreamConfig wl = TenantClickConfig(pc);

  for (size_t i = 0; i < count; ++i) {
    const flower::fleet::TenantConfig& t = tenants[i];
    flower::flow::FlowConfig fc = TenantFlowConfig(t, pc);
    auto p = std::make_unique<Pipeline>();
    r.status = p->Build(fc, MakeArrival(t, arrival_horizon), wl, t.seed);
    if (!r.status.ok()) return r;

    bool done = false;
    r.status = p->sim.ScheduleAt(end, [&done] { done = true; });
    if (!r.status.ok()) return r;
    uint64_t generator_events = 0;
    while (!done) {
      p->flags = StepFlags{};
      size_t dp0 = p->store.total_datapoints();
      Clock::time_point t0 = Clock::now();
      if (!p->sim.Step()) break;
      double dt = SecondsSince(t0);
      if (done) break;  // The sentinel itself.
      if (p->flags.storm) {
        r.tick_s += dt;
      } else if (p->flags.arrival) {
        r.workload_event_s += dt;
        ++generator_events;
      } else if (p->store.total_datapoints() != dp0) {
        r.publish_s += dt;
      }
    }
    r.get_s += p->get_s;
    r.window_s += p->window_s;
    r.persist_s += p->persist_s;

    PipelineCounts mine = CountsOf(*p, p->store);
    flower::Result<PipelineCounts> ref =
        ReferenceCounts(fc, MakeArrival(t, arrival_horizon), wl, t.seed, end);
    if (!ref.ok()) {
      r.status = ref.status();
      return r;
    }
    if (!(mine == *ref) && r.fidelity_error.empty()) {
      r.fidelity_error = "tenant " + t.id +
                         ": composed pipeline counts differ from "
                         "DataAnalyticsFlow";
    }
    r.records += mine.generated;
    r.put_throttled += mine.dropped;
    r.tuples += mine.executed;
    r.aggregates += p->window->emitted_aggregates();
    r.writes += mine.writes;
    r.write_throttled += mine.write_throttled;
    r.datapoints += mine.datapoints;
    r.series += mine.series;
    r.put_s += CalibratePuts(fc, mine.generated, generator_events,
                             wl.emit_period_sec);

    // Sensor queries over every control window of the filled store
    // (the three loops' metrics, trailing-window Average).
    const flower::cloudwatch::MetricId sensors[] = {
        {"Flower/Kinesis", "WriteUtilization", fc.stream.name},
        {"Flower/Storm", "CpuUtilization", fc.cluster.name},
        {"Flower/DynamoDB", "WriteUtilization", fc.table.name}};
    double period = t.monitoring_period_sec;
    for (const flower::cloudwatch::MetricId& id : sensors) {
      for (double q = period; q <= w.replay_horizon_sec; q += period) {
        Clock::time_point t0 = Clock::now();
        flower::Result<double> v = p->store.GetStatistic(
            id, q - period, q, flower::cloudwatch::Statistic::kAverage);
        r.query_s.push_back(SecondsSince(t0));
        (void)v;
      }
    }
  }
  return r;
}

}  // namespace flowerbench
