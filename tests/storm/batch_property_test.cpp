// Property: the cluster's batch path (library bolts implementing
// ExecuteBatch) and the per-tuple path (the same bolts behind decorators
// that override only Execute, as perfbench's timing decorator does) run
// a topology identically, bit for bit: queues, executed, acked and
// throttle counters, the per-tick CPU utilization, the window bolts'
// emitted aggregates and every stored item. The per-tuple side runs
// each batch as batches of one, so the batch write's cursor and the
// window's batch add are checked against single calls.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <vector>

#include "common/random.h"
#include "dynamodb/table.h"
#include "flow/bolts.h"
#include "storm/cluster.h"

namespace flower::storm {
namespace {

/// Execute-only decorator: the cluster reaches `inner` one tuple at a
/// time, through the default ExecuteBatch and `inner`'s default
/// Execute.
class PerTuple final : public BoltLogic {
 public:
  explicit PerTuple(std::shared_ptr<BoltLogic> inner)
      : inner_(std::move(inner)) {}
  Status Execute(const Tuple& input, SimTime now,
                 const std::function<void(Tuple)>& emit) override {
    return inner_->Execute(input, now, emit);
  }

 private:
  std::shared_ptr<BoltLogic> inner_;
};

/// Sink that throttles on a schedule: attempt k (counting from 1)
/// throttles when k % period == phase.
class ScheduledSink final : public BoltLogic {
 public:
  ScheduledSink(uint64_t period, uint64_t phase)
      : period_(period), phase_(phase) {}
  size_t ExecuteBatch(const Tuple* /*in*/, size_t n, SimTime /*now*/,
                      VecDeque<Tuple>* /*out*/, Status* status) override {
    for (size_t i = 0; i < n; ++i) {
      if (++attempts_ % period_ == phase_) {
        *status = Status::Throttled("scheduled throttle");
        return i;
      }
    }
    return n;
  }

 private:
  uint64_t period_;
  uint64_t phase_;
  uint64_t attempts_ = 0;
};

enum class Shape { kChain, kFanOut, kFanIn };

struct QueueSpout {
  std::deque<Tuple> q;
  SpoutFn Fn() {
    return [this](size_t max, std::vector<Tuple>* out) {
      while (!q.empty() && max-- > 0) {
        out->push_back(q.front());
        q.pop_front();
      }
    };
  }
};

/// One side of the comparison: its own simulation, fleet, cluster and
/// table, built from the same seed.
struct Side {
  sim::Simulation sim;
  std::unique_ptr<ec2::Fleet> fleet;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<dynamodb::Table> table;
  std::vector<std::shared_ptr<flow::WindowCountBolt>> windows;
  QueueSpout spouts[2];
  std::vector<double> cpu_per_tick;

  Side(Shape shape, uint64_t seed, bool per_tuple) {
    Rng rng(seed);
    fleet = std::make_unique<ec2::Fleet>(
        &sim, ec2::InstanceType{"test.small", 1, 1.0e4, 0.05},
        static_cast<int>(rng.UniformInt(1, 4)), 5.0);
    ClusterConfig cfg;
    cfg.tick_period_sec = 1.0;
    cfg.max_pending_tuples = static_cast<size_t>(rng.UniformInt(200, 5000));
    cfg.spout_batch_limit = static_cast<size_t>(rng.UniformInt(50, 2000));
    cfg.cost_jitter = rng.Uniform(0.0, 0.3);
    cfg.jitter_seed = seed;
    cluster = std::make_unique<Cluster>(&sim, nullptr, fleet.get(), cfg);
    dynamodb::TableConfig tcfg;
    tcfg.initial_wcu = rng.Uniform(5.0, 60.0);
    tcfg.burst_window_sec = 2.0;
    table = std::make_unique<dynamodb::Table>(&sim, nullptr, tcfg);

    auto wrap = [per_tuple](std::shared_ptr<BoltLogic> logic) {
      return per_tuple ? std::make_shared<PerTuple>(std::move(logic))
                       : logic;
    };
    auto cost = [&rng] { return rng.Uniform(20.0, 400.0); };
    auto topo = std::make_shared<Topology>("t");
    auto add = [&](const char* name, std::shared_ptr<BoltLogic> logic,
                   std::vector<std::string> parents) {
      BoltSpec spec;
      spec.name = name;
      spec.cpu_cost_per_tuple = cost();
      spec.logic = wrap(std::move(logic));
      EXPECT_TRUE(topo->AddBolt(std::move(spec), parents).ok());
    };
    auto window = [this] {
      windows.push_back(std::make_shared<flow::WindowCountBolt>(
          flow::SlidingWindowCounter::Create(20.0, 5.0).MoveValueOrDie()));
      return windows.back();
    };
    auto persist = [this] {
      return std::make_shared<flow::PersistBolt>(table.get());
    };
    auto sink = [&rng] {
      uint64_t period = static_cast<uint64_t>(rng.UniformInt(3, 40));
      return std::make_shared<ScheduledSink>(
          period, static_cast<uint64_t>(rng.UniformInt(0, period - 1)));
    };
    EXPECT_TRUE(topo->AddSpout("s0", spouts[0].Fn(), rng.Uniform(0, 50)).ok());
    switch (shape) {
      case Shape::kChain:
        add("parse", std::make_shared<StatelessBolt>(1.0), {"s0"});
        add("window", window(), {"parse"});
        add("persist", persist(), {"window"});
        break;
      case Shape::kFanOut:
        add("split", std::make_shared<StatelessBolt>(rng.Uniform(0.3, 2.5)),
            {"s0"});
        add("window", window(), {"split"});
        add("sink", sink(), {"split"});
        add("persist", persist(), {"window"});
        add("thin", std::make_shared<StatelessBolt>(0.25), {"window"});
        break;
      case Shape::kFanIn:
        EXPECT_TRUE(
            topo->AddSpout("s1", spouts[1].Fn(), rng.Uniform(0, 50)).ok());
        add("join", std::make_shared<StatelessBolt>(rng.Uniform(0.5, 1.5)),
            {"s0", "s1"});
        add("window", window(), {"join"});
        add("sink", sink(), {"join", "window"});
        break;
    }
    EXPECT_TRUE(cluster->Submit(topo).ok());

    // Offered load and resizes, drawn from a stream of their own so
    // both sides see the same schedule.
    auto load = std::make_shared<Rng>(seed ^ 0x5eedULL);
    EXPECT_TRUE(sim.SchedulePeriodic(0.5, 1.0, [this, load] {
      for (QueueSpout& s : spouts) {
        int64_t n = load->UniformInt(0, 150);
        for (int64_t i = 0; i < n; ++i) {
          Tuple t;
          t.origin_time = sim.Now() - load->Uniform(0.0, 3.0);
          t.entity_id = load->UniformInt(-1'000'000'000'000LL, 40) / 7;
          t.value = load->Uniform(0.5, 2.0);
          s.q.push_back(t);
        }
      }
      if (load->Bernoulli(0.02)) {
        (void)cluster->SetWorkerCount(static_cast<int>(load->UniformInt(1, 4)));
      }
      return true;
    }).ok());
    // Sample the utilization right after every tick.
    EXPECT_TRUE(sim.SchedulePeriodic(1.0, 1.0, [this] {
      cpu_per_tick.push_back(cluster->LastTickCpuUtilizationPct());
      return true;
    }).ok());
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BatchPathProperty, MatchesPerTuplePathBitForBit) {
  for (Shape shape : {Shape::kChain, Shape::kFanOut, Shape::kFanIn}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << " seed " << seed);
      Side batch(shape, seed, /*per_tuple=*/false);
      Side single(shape, seed, /*per_tuple=*/true);
      for (double t = 25.0; t <= 200.0; t += 25.0) {
        batch.sim.RunUntil(t);
        single.sim.RunUntil(t);
        const Cluster& a = *batch.cluster;
        const Cluster& b = *single.cluster;
        ASSERT_EQ(a.topology()->QueueLengths(), b.topology()->QueueLengths());
        ASSERT_EQ(a.total_executed(), b.total_executed());
        ASSERT_EQ(a.total_acked(), b.total_acked());
        ASSERT_EQ(a.total_sink_throttles(), b.total_sink_throttles());
        ASSERT_EQ(batch.table->total_writes(), single.table->total_writes());
        ASSERT_EQ(batch.table->total_throttled_writes(),
                  single.table->total_throttled_writes());
        ASSERT_EQ(batch.table->ItemCount(), single.table->ItemCount());
        for (size_t i = 0; i < batch.table->ItemCount(); ++i) {
          const auto& x = batch.table->items()[i];
          const auto& y = single.table->items()[i];
          ASSERT_EQ(x.first, y.first) << "item " << i;
          ASSERT_TRUE(SameBits(x.second, y.second)) << "item " << i;
        }
        ASSERT_EQ(batch.windows.size(), single.windows.size());
        for (size_t i = 0; i < batch.windows.size(); ++i) {
          ASSERT_EQ(batch.windows[i]->emitted_aggregates(),
                    single.windows[i]->emitted_aggregates());
        }
        ASSERT_EQ(batch.cpu_per_tick.size(), single.cpu_per_tick.size());
        for (size_t i = 0; i < batch.cpu_per_tick.size(); ++i) {
          ASSERT_TRUE(SameBits(batch.cpu_per_tick[i], single.cpu_per_tick[i]))
              << "tick " << i;
        }
      }
      // The run must have exercised backpressure and throttling, and
      // have persisted and aggregated something.
      if (shape != Shape::kChain) {
        EXPECT_GT(batch.cluster->total_sink_throttles(), 0u);
      }
      if (shape != Shape::kFanIn) {
        EXPECT_GT(batch.table->ItemCount(), 0u);
      }
      EXPECT_GT(batch.windows[0]->emitted_aggregates(), 0u);
    }
  }
}

}  // namespace
}  // namespace flower::storm
