#include "flow/flow.h"

#include <algorithm>

#include "flow/bolts.h"

namespace flower::flow {

DataAnalyticsFlow::DataAnalyticsFlow(sim::Simulation* sim,
                                     cloudwatch::MetricStore* metrics,
                                     FlowConfig config)
    : sim_(sim), metrics_(metrics), config_(std::move(config)) {}

Result<std::unique_ptr<DataAnalyticsFlow>> DataAnalyticsFlow::Create(
    sim::Simulation* sim, cloudwatch::MetricStore* metrics,
    FlowConfig config) {
  if (sim == nullptr) {
    return Status::InvalidArgument("DataAnalyticsFlow: null simulation");
  }
  std::unique_ptr<DataAnalyticsFlow> flow(
      new DataAnalyticsFlow(sim, metrics, std::move(config)));
  FLOWER_RETURN_NOT_OK(flow->Init());
  return flow;
}

Status DataAnalyticsFlow::Init() {
  // The window settings are checked before any service schedules on
  // the simulation, so a refused flow leaves no event behind.
  FLOWER_ASSIGN_OR_RETURN(
      SlidingWindowCounter counter,
      SlidingWindowCounter::Create(config_.window_sec, config_.slide_sec));
  stream_ = std::make_unique<kinesis::Stream>(sim_, metrics_,
                                              config_.stream);
  fleet_ = std::make_unique<ec2::Fleet>(sim_, config_.instance_type,
                                        config_.initial_workers,
                                        config_.worker_boot_delay_sec);
  cluster_ = std::make_unique<storm::Cluster>(sim_, metrics_, fleet_.get(),
                                              config_.cluster);
  table_ = std::make_unique<dynamodb::Table>(sim_, metrics_, config_.table);

  // Build the click-stream topology: spout → parse → window → persist.
  topology_ = std::make_shared<storm::Topology>(config_.name + "-topology");
  kinesis::Stream* stream = stream_.get();
  auto spout = [stream](size_t max, std::vector<storm::Tuple>* out) {
    int shards = stream->shard_count();
    if (shards <= 0 || max == 0) return;
    // Each shard's records are converted into tuples straight from its
    // ring, each appended once whole (`value` and `source` keep their
    // defaults; the cluster stamps the source); records read past `max`
    // are not kept.
    const auto convert = [max, out](const kinesis::Record* records,
                                    size_t n) {
      const size_t take = std::min(n, max - out->size());
      for (size_t i = 0; i < take; ++i) {
        out->push_back({records[i].timestamp, records[i].entity_id,
                        records[i].size_bytes});
      }
    };
    size_t per_shard = max / static_cast<size_t>(shards) + 1;
    for (int s = 0; s < shards && out->size() < max; ++s) {
      // A throttled shard is skipped until the next pull.
      (void)stream->ReadRecords(s, per_shard, convert);
    }
  };
  FLOWER_RETURN_NOT_OK(
      topology_->SetSpout("kinesis-spout", spout, config_.spout_cost));

  storm::BoltSpec parse;
  parse.name = "parse";
  parse.cpu_cost_per_tuple = config_.parse_cost;
  parse.logic = std::make_shared<storm::StatelessBolt>(1.0);
  FLOWER_RETURN_NOT_OK(topology_->AddBolt(std::move(parse)));

  storm::BoltSpec window;
  window.name = "window-count";
  window.cpu_cost_per_tuple = config_.window_cost;
  window.logic = std::make_shared<WindowCountBolt>(std::move(counter));
  FLOWER_RETURN_NOT_OK(topology_->AddBolt(std::move(window), "parse"));

  storm::BoltSpec persist;
  persist.name = "persist";
  persist.cpu_cost_per_tuple = config_.persist_cost;
  persist.logic = std::make_shared<PersistBolt>(table_.get());
  FLOWER_RETURN_NOT_OK(topology_->AddBolt(std::move(persist), "window-count"));

  return cluster_->Submit(topology_);
}

Status DataAnalyticsFlow::AttachWorkload(
    std::shared_ptr<workload::ArrivalProcess> arrival,
    workload::ClickStreamConfig wl_config, uint64_t seed) {
  if (generator_ != nullptr) {
    return Status::AlreadyExists(
        "DataAnalyticsFlow: workload already attached");
  }
  if (arrival == nullptr) {
    return Status::InvalidArgument("AttachWorkload: null arrival process");
  }
  generator_ = std::make_unique<workload::ClickStreamGenerator>(
      sim_, stream_.get(), std::move(arrival), wl_config, seed);
  return Status::OK();
}

}  // namespace flower::flow
