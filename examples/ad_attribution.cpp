// Ad-attribution flow: a second domain scenario built from Flower's
// lower-level primitives (no FlowBuilder): TWO Kinesis streams — ad
// impressions and clicks — joined inside one Storm topology (the
// multi-parent DAG), with attributed conversions persisted to DynamoDB
// and Flower's adaptive controllers managing every resource.
//
//   impressions ─┐
//                ├─ join (attribution window) ─ persist → DynamoDB
//   clicks ──────┘
//
//   $ ./build/examples/ad_attribution

#include <iostream>
#include <map>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/elasticity_manager.h"
#include "core/controller_factory.h"
#include "core/monitor.h"
#include "dynamodb/table.h"
#include "storm/cluster.h"
#include "workload/clickstream.h"

using namespace flower;

namespace {

/// Joins clicks (source 1) to the most recent impression (source 0) of
/// the same ad within the attribution window; emits one attributed
/// tuple per match.
class AttributionJoinBolt final : public storm::BoltLogic {
 public:
  explicit AttributionJoinBolt(double window_sec) : window_(window_sec) {}

  Status Execute(const storm::Tuple& t, SimTime now,
                 const std::function<void(storm::Tuple)>& emit) override {
    if (t.source == 0) {  // Impression: remember it.
      last_impression_[t.entity_id] = now;
      return Status::OK();
    }
    // Click: attribute if an impression for this ad is fresh enough.
    auto it = last_impression_.find(t.entity_id);
    if (it != last_impression_.end() && now - it->second <= window_) {
      storm::Tuple attributed = t;
      attributed.value = 1.0;
      emit(attributed);
      ++attributed_;
    } else {
      ++unattributed_;
    }
    return Status::OK();
  }

  uint64_t attributed() const { return attributed_; }
  uint64_t unattributed() const { return unattributed_; }

 private:
  double window_;
  std::map<int64_t, SimTime> last_impression_;
  uint64_t attributed_ = 0;
  uint64_t unattributed_ = 0;
};

/// Accumulates attributed conversions per ad and writes running totals
/// to DynamoDB.
class ConversionSink final : public storm::BoltLogic {
 public:
  explicit ConversionSink(dynamodb::Table* table) : table_(table) {}
  Status Execute(const storm::Tuple& t, SimTime,
                 const std::function<void(storm::Tuple)>&) override {
    double& total = totals_[t.entity_id];
    Status st = table_->PutItem(t.entity_id, total + t.value, 128);
    if (st.ok()) total += t.value;
    return st;  // Throttled -> re-queued by the cluster (backpressure).
  }

 private:
  dynamodb::Table* table_;
  std::map<int64_t, double> totals_;
};

}  // namespace

int main() {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;

  // --- Ingestion: two streams.
  kinesis::StreamConfig imp_cfg;
  imp_cfg.name = "impressions";
  imp_cfg.initial_shards = 4;
  imp_cfg.max_shards = 64;
  kinesis::Stream impressions(&sim, &metrics, imp_cfg);
  kinesis::StreamConfig clk_cfg;
  clk_cfg.name = "clicks";
  clk_cfg.initial_shards = 2;
  clk_cfg.max_shards = 64;
  kinesis::Stream clicks(&sim, &metrics, clk_cfg);

  // --- Storage.
  dynamodb::TableConfig table_cfg;
  table_cfg.name = "conversions";
  table_cfg.initial_wcu = 100.0;
  table_cfg.max_wcu = 5000.0;
  dynamodb::Table table(&sim, &metrics, table_cfg);

  // --- Analytics: join topology on a simulated EC2 fleet.
  ec2::Fleet fleet(&sim, {"m4.large", 2, 1.0e6, 0.10}, 4, 90.0);
  storm::ClusterConfig cluster_cfg;
  cluster_cfg.name = "attribution";
  storm::Cluster cluster(&sim, &metrics, &fleet, cluster_cfg);

  auto drain = [](kinesis::Stream* stream) {
    return [stream](size_t max, std::vector<storm::Tuple>* out) {
      for (int s = 0; s < stream->shard_count() && out->size() < max; ++s) {
        auto recs = stream->GetRecords(
            s, max / static_cast<size_t>(stream->shard_count()) + 1);
        if (!recs.ok()) continue;
        for (const kinesis::Record& r : *recs) {
          storm::Tuple t;
          t.origin_time = r.timestamp;
          t.entity_id = r.entity_id;
          t.size_bytes = r.size_bytes;
          out->push_back(t);
          if (out->size() >= max) break;
        }
      }
    };
  };
  auto topology = std::make_shared<storm::Topology>("attribution");
  if (!topology->AddSpout("impressions", drain(&impressions), 300.0).ok() ||
      !topology->AddSpout("clicks", drain(&clicks), 300.0).ok()) {
    return 1;
  }
  auto join = std::make_shared<AttributionJoinBolt>(5.0 * kMinute);
  storm::BoltSpec join_spec;
  join_spec.name = "attribution-join";
  join_spec.cpu_cost_per_tuple = 2500.0;
  join_spec.logic = join;
  if (!topology->AddBolt(join_spec, std::vector<std::string>{"impressions", "clicks"}).ok()) {
    return 1;
  }
  storm::BoltSpec sink_spec;
  sink_spec.name = "conversion-sink";
  sink_spec.cpu_cost_per_tuple = 600.0;
  sink_spec.logic = std::make_shared<ConversionSink>(&table);
  if (!topology->AddBolt(sink_spec, "attribution-join").ok()) return 1;
  if (!cluster.Submit(topology).ok()) return 1;

  // --- Workloads: many impressions, fewer clicks, same ad catalog.
  workload::ClickStreamConfig ads;
  ads.num_users = 100000;
  ads.num_urls = 300;  // Ad ids.
  workload::ClickStreamGenerator imp_gen(
      &sim, &impressions,
      std::make_shared<workload::DiurnalArrival>(2000.0, 1200.0, 2 * kHour),
      ads, 101);
  workload::ClickStreamGenerator clk_gen(
      &sim, &clicks,
      std::make_shared<workload::DiurnalArrival>(250.0, 150.0, 2 * kHour),
      ads, 202);

  // --- Flower: controllers on both streams, the cluster and the table.
  core::ElasticityManager manager(&sim, &metrics);
  auto attach = [&](core::Layer layer, cloudwatch::MetricId metric,
                    double initial_u, control::ActuatorLimits limits,
                    double gain_scale,
                    std::function<Status(double)> actuator) {
    auto controller = core::MakeController(
        core::ControllerKind::kAdaptiveGain, 60.0, limits, gain_scale);
    if (!controller.ok()) return false;
    core::LayerControlConfig cfg;
    cfg.layer = layer;
    cfg.sensor_metric = std::move(metric);
    cfg.monitoring_period_sec = 120.0;
    cfg.monitoring_window_sec = 120.0;
    cfg.controller = std::move(*controller);
    cfg.actuator = std::move(actuator);
    cfg.initial_u = initial_u;
    return manager.Attach(std::move(cfg)).ok();
  };
  control::ActuatorLimits shard_limits{1.0, 64.0, true};
  control::ActuatorLimits vm_limits{1.0, 40.0, true};
  control::ActuatorLimits wcu_limits{5.0, 5000.0, true};
  bool ok =
      attach(core::Layer::kIngestion,
             {"Flower/Kinesis", "WriteUtilization", "impressions"}, 4.0,
             shard_limits, 1.0,
             [&](double u) {
               return impressions.UpdateShardCount(
                   static_cast<int>(std::lround(u)));
             }) &&
      attach(core::Layer::kAnalytics,
             {"Flower/Storm", "CpuUtilization", "attribution"}, 4.0,
             vm_limits, 1.0,
             [&](double u) {
               return cluster.SetWorkerCount(
                   static_cast<int>(std::lround(u)));
             }) &&
      attach(core::Layer::kStorage,
             {"Flower/DynamoDB", "WriteUtilization", "conversions"}, 100.0,
             wcu_limits, 50.0, [&](double u) {
               return table.SetProvisionedThroughput(
                   u, table.provisioned_rcu());
             });
  {
    // The same manager runs a second, *named* ingestion loop for the
    // clicks stream (one loop per resource, several per layer).
    core::LayerControlConfig cfg;
    cfg.layer = core::Layer::kIngestion;
    cfg.name = "ingestion-clicks";
    cfg.sensor_metric = {"Flower/Kinesis", "WriteUtilization", "clicks"};
    cfg.monitoring_period_sec = 120.0;
    cfg.monitoring_window_sec = 120.0;
    auto controller = core::MakeController(
        core::ControllerKind::kAdaptiveGain, 60.0, shard_limits);
    if (!controller.ok()) return 1;
    cfg.controller = std::move(*controller);
    cfg.actuator = [&](double u) {
      return clicks.UpdateShardCount(static_cast<int>(std::lround(u)));
    };
    cfg.initial_u = 2.0;
    ok = ok && manager.Attach(std::move(cfg)).ok();
  }
  if (!ok) {
    std::cerr << "failed to attach controllers\n";
    return 1;
  }

  // --- Run 4 simulated hours, reporting hourly.
  TablePrinter report({"hour", "imp shards", "clk shards", "VMs", "WCU",
                       "attributed", "unattributed", "items"});
  (void)sim.SchedulePeriodic(kHour, kHour, [&] {
    report.AddRow({TablePrinter::Num(sim.Now() / kHour, 0),
                   std::to_string(impressions.shard_count()),
                   std::to_string(clicks.shard_count()),
                   std::to_string(cluster.worker_count()),
                   TablePrinter::Num(table.provisioned_wcu(), 0),
                   std::to_string(join->attributed()),
                   std::to_string(join->unattributed()),
                   std::to_string(table.ItemCount())});
    return sim.Now() < 4 * kHour;
  });
  sim.RunUntil(4 * kHour);

  std::cout << "== Ad-attribution flow (two streams joined in one "
               "topology) ==\n\n";
  report.Print(std::cout);
  double rate = join->attributed() + join->unattributed() > 0
                    ? 100.0 * static_cast<double>(join->attributed()) /
                          static_cast<double>(join->attributed() +
                                              join->unattributed())
                    : 0.0;
  std::cout << "\nAttribution rate: " << TablePrinter::Num(rate, 1)
            << "% of clicks matched an impression within 5 minutes\n";
  std::cout << "Dropped impressions: " << imp_gen.total_dropped()
            << ", dropped clicks: " << clk_gen.total_dropped() << "\n\n";
  core::CrossPlatformMonitor monitor(&metrics);
  monitor.Watch({"Flower/Kinesis", "WriteUtilization", "impressions"});
  monitor.Watch({"Flower/Kinesis", "WriteUtilization", "clicks"});
  monitor.Watch({"Flower/Storm", "CpuUtilization", "attribution"});
  monitor.Watch({"Flower/DynamoDB", "WriteUtilization", "conversions"});
  monitor.RenderDashboard(std::cout, 3 * kHour, 4 * kHour);
  return 0;
}
