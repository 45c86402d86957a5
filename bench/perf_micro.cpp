// Micro-benchmarks of Flower's infrastructure (google-benchmark):
// NSGA-II generations, OLS fits, correlation scans, simulation event
// throughput, controller updates, metric-store writes/queries, and the
// sliding-window counter. These quantify the overhead of the manager
// itself — the paper's implicit requirement that the elasticity layer
// is cheap relative to the systems it manages.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "cloudwatch/metric_store.h"
#include "common/random.h"
#include "exec/thread_pool.h"
#include "flow/flow.h"
#include "control/adaptive_gain.h"
#include "core/controller_factory.h"
#include "core/elasticity_manager.h"
#include "core/resource_share.h"
#include "dynamodb/table.h"
#include "fleet/fleet_manager.h"
#include "flow/sliding_window.h"
#include "kinesis/stream.h"
#include "obs/metrics_registry.h"
#include "obs/replay/flight_recorder.h"
#include "opt/nsga2.h"
#include "sim/simulation.h"
#include "stats/correlation.h"
#include "stats/linreg.h"
#include "workload/clickstream.h"

namespace flower {
namespace {

core::ResourceShareRequest BenchRequest() {
  core::ResourceShareRequest req;
  req.hourly_budget_usd = 2.0;
  req.bounds[0] = {1.0, 40.0};
  req.bounds[1] = {1.0, 20.0};
  req.bounds[2] = {1.0, 400.0};
  req.constraints.push_back(core::LinearConstraint::AtLeast(
      core::Layer::kAnalytics, 5.0, core::Layer::kIngestion, 1.0));
  req.constraints.push_back(core::LinearConstraint::AtMost(
      core::Layer::kAnalytics, 2.0, core::Layer::kIngestion, -1.0, 0.0));
  return req;
}

void BM_Nsga2ResourceShare(benchmark::State& state) {
  core::ShareProblem problem(BenchRequest());
  opt::Nsga2Config cfg;
  cfg.population_size = 100;
  cfg.generations = static_cast<size_t>(state.range(0));
  opt::Nsga2 solver(cfg);
  for (auto _ : state) {
    auto res = solver.Solve(problem);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 100);
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0) * 100),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Nsga2ResourceShare)->Arg(10)->Arg(50)->Arg(250);

void BM_OlsSimpleFit(benchmark::State& state) {
  Rng rng(1);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    double xi = rng.Uniform(0, 50000);
    x.push_back(xi);
    y.push_back(4.8 + 0.0002 * xi + rng.Normal(0, 0.5));
  }
  for (auto _ : state) {
    auto fit = stats::FitSimple(x, y);
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_OlsSimpleFit)->Arg(550)->Arg(10000);

void BM_CrossCorrelationScan(benchmark::State& state) {
  Rng rng(2);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  for (auto _ : state) {
    auto r = stats::CrossCorrelation(x, y, 30);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CrossCorrelationScan)->Arg(550)->Arg(5000);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int64_t n = state.range(0);
    for (int64_t i = 0; i < n; ++i) {
      (void)sim.ScheduleAt(static_cast<double>(i % 100), [] {});
    }
    sim.RunUntil(1000.0);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulationEventThroughput)->Arg(100000);

void BM_AdaptiveControllerUpdate(benchmark::State& state) {
  control::AdaptiveGainConfig cfg;
  cfg.limits.min = 1.0;
  cfg.limits.max = 1000.0;
  control::AdaptiveGainController c(cfg);
  c.Reset(10.0);
  double t = 0.0;
  double y = 50.0;
  for (auto _ : state) {
    t += 60.0;
    y = y < 80.0 ? y + 1.0 : 40.0;
    auto u = c.Update(t, y);
    benchmark::DoNotOptimize(u);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AdaptiveControllerUpdate);

void BM_MetricStorePut(benchmark::State& state) {
  cloudwatch::MetricStore store;
  cloudwatch::MetricId id{"Flower/Storm", "CpuUtilization", "c"};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(store.Put(id, t, 42.0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricStorePut);

void BM_MetricStoreWindowQuery(benchmark::State& state) {
  cloudwatch::MetricStore store;
  cloudwatch::MetricId id{"Flower/Storm", "CpuUtilization", "c"};
  for (int i = 0; i < 100000; ++i) {
    (void)store.Put(id, static_cast<double>(i), 42.0);
  }
  for (auto _ : state) {
    auto v = store.GetStatistic(id, 99000.0, 100000.0,
                                cloudwatch::Statistic::kAverage);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_MetricStoreWindowQuery);

void BM_SlidingWindowAdd(benchmark::State& state) {
  auto counter = flow::SlidingWindowCounter::Create(60.0, 10.0)
                     .MoveValueOrDie();
  Rng rng(3);
  double t = 0.0;
  uint64_t emitted = 0;
  for (auto _ : state) {
    t += 0.001;
    counter.Add(rng.UniformInt(0, 499), t);
    counter.AdvanceTo(t, [&](int64_t, double, double) { ++emitted; });
  }
  benchmark::DoNotOptimize(emitted);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlidingWindowAdd);

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter =
      registry.GetCounter("bench.ops", {{"layer", "analytics"}});
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist =
      registry.GetHistogram("bench.latency_us", {{"layer", "analytics"}});
  Rng rng(4);
  double v = 1.0;
  for (auto _ : state) {
    v = v < 1e6 ? v * 1.37 : rng.Uniform(0.0, 10.0);
    hist->Record(v);
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramRecord);

// Hard guard, run before the benchmarks: 1e5 counter increments plus
// 1e5 histogram records must not allocate at all once the instruments
// are registered. Returns false (and fails the binary) on any heap
// traffic, which would invalidate every hot-path number above.
bool MetricsHotPathIsAllocationFree() {
  obs::MetricsRegistry registry;
  obs::Counter* counter =
      registry.GetCounter("guard.ops", {{"layer", "analytics"}});
  obs::Histogram* hist =
      registry.GetHistogram("guard.latency_us", {{"layer", "analytics"}});
  constexpr int kOps = 100000;
  uint64_t before = bench::AllocationCount();
  for (int i = 0; i < kOps; ++i) {
    counter->Increment();
    hist->Record(static_cast<double>(i % 4096) * 0.37);
  }
  uint64_t allocs = bench::AllocationCount() - before;
  std::printf("metrics hot-path allocation guard: %llu allocations over %d "
              "counter increments + %d histogram records\n",
              static_cast<unsigned long long>(allocs), kOps, kOps);
  return allocs == 0;
}

// Minimal 2-variable / 2-objective / 1-constraint problem whose
// Evaluate performs no allocations once the caller's buffers hold two
// elements — isolates the solver's own heap behavior.
class GuardProblem final : public opt::Problem {
 public:
  GuardProblem() {
    specs_.push_back({"a", 0.0, 10.0, false});
    specs_.push_back({"b", 0.0, 10.0, false});
  }
  const std::vector<opt::VariableSpec>& variables() const override {
    return specs_;
  }
  size_t num_objectives() const override { return 2; }
  size_t num_constraints() const override { return 1; }
  void Evaluate(const std::vector<double>& x,
                std::vector<double>* objectives,
                std::vector<double>* violations) const override {
    objectives->push_back(x[0]);
    objectives->push_back(10.0 - x[0] + 0.1 * x[1]);
    violations->push_back(std::max(0.0, x[0] + x[1] - 15.0));
  }

 private:
  std::vector<opt::VariableSpec> specs_;
};

// Second hard guard: NSGA-II's generation loop must be allocation-free
// in steady state. The first generations warm the arena/workspace/
// scratch capacities (and the thread_local violation buffer); every
// generation after the warm-up window must perform zero heap
// allocations, with the convergence-stall bookkeeping enabled so the
// early-exit path is covered too.
bool PlannerSteadyStateIsAllocationLean() {
  constexpr size_t kGenerations = 12;
  constexpr size_t kWarmupGenerations = 2;
  static uint64_t per_gen[kGenerations];
  static uint64_t last_mark;
  GuardProblem problem;
  opt::Nsga2Config cfg;
  cfg.population_size = 32;
  cfg.generations = kGenerations;
  cfg.num_threads = 1;
  cfg.stall_generations = kGenerations + 1;  // Bookkeeping on, no exit.
  cfg.on_generation = [](const opt::Nsga2GenerationStats& s) {
    uint64_t now = bench::AllocationCount();
    per_gen[s.generation] = now - last_mark;
    last_mark = now;
  };
  opt::Nsga2 solver(cfg);
  last_mark = bench::AllocationCount();
  auto res = solver.Solve(problem);
  if (!res.ok()) {
    std::printf("planner steady-state guard: solve failed\n");
    return false;
  }
  uint64_t steady = 0;
  for (size_t g = kWarmupGenerations; g < kGenerations; ++g) {
    steady += per_gen[g];
  }
  std::printf("planner steady-state allocation guard: %llu allocations over "
              "generations %zu..%zu (warm-up gens excluded)\n",
              static_cast<unsigned long long>(steady), kWarmupGenerations,
              kGenerations - 1);
  return steady == 0;
}

// Third hard guard: the simulated flow's steady-state tick must be
// allocation-free. One full analytics flow (Kinesis -> Storm ->
// DynamoDB, no metric store) is warmed past a complete timer-wheel
// rotation (64 s) and a slide-boundary emission, so every ring buffer,
// tuple queue and pooled wheel bucket holds its high-water capacity;
// the next 30 simulated seconds — spout-pull / tuple-transfer /
// window-add ticks plus three slide boundaries (window emission and
// DynamoDB persist) — must then perform zero heap allocations.
bool SimSteadyTickIsAllocationFree() {
  sim::Simulation sim;
  flow::FlowConfig cfg = bench::CanonicalFlow();
  // Enough WCU that a slide boundary's persist burst completes inside
  // the boundary tick instead of draining into the measured window.
  cfg.table.initial_wcu = 2000.0;
  auto f = flow::DataAnalyticsFlow::Create(&sim, nullptr, cfg);
  if (!f.ok()) {
    std::printf("sim steady-tick guard: flow creation failed\n");
    return false;
  }
  // ~80% of the 2-worker cluster's capacity: an overloaded cluster
  // never reaches steady state (the window bolt starves behind the
  // backlog and keeps first-touching entities past any warm-up).
  Status st = (*f)->AttachWorkload(
      std::make_shared<workload::ConstantArrival>(300.0),
      bench::CanonicalWorkload(), /*seed=*/7);
  if (!st.ok()) {
    std::printf("sim steady-tick guard: workload attach failed\n");
    return false;
  }
  // Past one wheel rotation (64 s) and one sliding-window ring
  // rotation (8 slots x 10 s); boundary-100's emission lands ~101-102.
  sim.RunUntil(103.0);
  uint64_t before = bench::AllocationCount();
  sim.RunUntil(133.0);  // Ticks 104..133, boundaries 110, 120 and 130.
  uint64_t allocs = bench::AllocationCount() - before;
  std::printf("sim steady-tick allocation guard: %llu allocations over 30 "
              "cluster ticks spanning 3 slide boundaries\n",
              static_cast<unsigned long long>(allocs));
  return allocs == 0;
}

// Overload must not allocate per rejected request (the throttle paths
// return short literal statuses). A 1-shard Kinesis stream and a 1-WCU
// DynamoDB table are each offered ten times their provisioned rate;
// the table also takes a batch write of 10 items per step, which the
// tokens stop mid-way or at its first item. After a warm-up that sizes
// the shard buffer, the consumer batch and the table's items, the
// measured window — accepted and rejected requests alike — must
// perform zero heap allocations while each service rejects at least
// 1e4 requests and at least 1e3 batches stop mid-way.
bool OverloadRejectionsAreAllocationFree() {
  sim::Simulation sim;
  kinesis::Stream stream(&sim, nullptr, kinesis::StreamConfig{});
  dynamodb::TableConfig table_cfg;
  table_cfg.initial_wcu = 1.0;
  dynamodb::Table table(&sim, nullptr, table_cfg);
  std::vector<kinesis::Record> batch;
  kinesis::Record record;
  // 100 puts per 10 ms against one shard's 1,000 records/s; the
  // consumer drains the shard once a second.
  auto offer_stream = [&](int seconds) {
    uint64_t rejected = 0;
    for (int step = 0; step < seconds * 100; ++step) {
      sim.RunUntil(sim.Now() + 0.01);
      for (uint64_t key = 0; key < 100; ++key) {
        record.partition_key = key;
        if (!stream.PutRecord(record).ok()) ++rejected;
      }
      if (step % 100 == 99) {
        batch.clear();
        (void)stream.GetRecordsInto(0, 10000, &batch);
      }
    }
    return rejected;
  };
  // 10 batch writes of 10 items and 10 writes of one item per second
  // against 1 WCU; the batch goes first and takes what the tokens give.
  std::array<dynamodb::PutRequest, 10> items;
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = {static_cast<int64_t>(i), 1.0};
  }
  uint64_t midway = 0;
  auto offer_table = [&](int seconds) {
    uint64_t rejected = 0;
    for (int step = 0; step < seconds * 10; ++step) {
      sim.RunUntil(sim.Now() + 0.1);
      Status st;
      const size_t written = table.PutItems(
          items.size(), 100, [&items](size_t i) { return items[i]; }, &st);
      if (written > 0 && written < items.size()) ++midway;
      if (!table.PutItem(7, 1.0, 100).ok()) ++rejected;
    }
    return rejected;
  };
  offer_stream(2);
  offer_table(10);
  midway = 0;
  uint64_t before = bench::AllocationCount();
  const uint64_t rejected_puts = offer_stream(2);
  const uint64_t rejected_writes = offer_table(1200);
  uint64_t allocs = bench::AllocationCount() - before;
  std::printf("overload allocation guard: %llu allocations over %llu "
              "rejected puts (1-shard stream) + %llu rejected writes and "
              "%llu batch writes stopped mid-way (1-WCU table) at 10x the "
              "provisioned rate\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(rejected_puts),
              static_cast<unsigned long long>(rejected_writes),
              static_cast<unsigned long long>(midway));
  return allocs == 0 && rejected_puts >= 10000 && rejected_writes >= 10000 &&
         midway >= 1000;
}

// The click generator's steady batch must not allocate: each emission
// draws its records into the thread's scratch and puts them with one
// PutRecords call. One generator feeds a 2-shard stream at 600
// clicks/s, below the write limit, and a consumer drains both shards
// every second into a warm buffer. After 300 s of warm-up, which sizes
// the scratch, the shard buffers and the consumer buffer, the next
// 120 s of emissions must perform zero heap allocations.
bool GeneratorSteadyBatchIsAllocationFree() {
  sim::Simulation sim;
  kinesis::StreamConfig stream_cfg;
  stream_cfg.initial_shards = 2;
  kinesis::Stream stream(&sim, nullptr, stream_cfg);
  workload::ClickStreamGenerator generator(
      &sim, &stream, std::make_shared<workload::ConstantArrival>(600.0),
      bench::CanonicalWorkload(), /*seed=*/7);
  std::vector<kinesis::Record> drained;
  Status st = sim.SchedulePeriodic(0.5, 1.0, [&] {
    for (int s = 0; s < stream.shard_count(); ++s) {
      drained.clear();
      (void)stream.GetRecordsInto(s, 100000, &drained);
    }
    return true;
  });
  if (!st.ok()) return false;
  sim.RunUntil(300.0);
  const uint64_t records_before = generator.total_generated();
  uint64_t before = bench::AllocationCount();
  sim.RunUntil(420.0);
  uint64_t allocs = bench::AllocationCount() - before;
  const uint64_t records = generator.total_generated() - records_before;
  std::printf("generator allocation guard: %llu allocations over 120 s of "
              "EmitBatch -> PutRecords (%llu records, %llu dropped)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(generator.total_dropped()));
  return allocs == 0 && records > 0 && generator.total_dropped() == 0;
}

// Fourth hard guard: the decision record path must be allocation-free.
// Every ring is preallocated at construction; after that, 1e5 decision
// records — each appended to a wrapped 256-slot decision log (a fleet
// partition's ring) and to the flight recorder — plus interleaved
// grant/re-plan entries, including ring wrap-around and checkpoint
// pushes, must perform zero heap allocations. The loop's law name is
// longer than any small-string buffer, so a record that copied it per
// step would show here.
bool FlightRecorderHotPathIsAllocationFree() {
  obs::DecisionLog log(256);
  Result<obs::LoopId> loop = log.loops().Register(
      {"analytics", "analytics", "adaptive-gain(no-memory)"});
  if (!loop.ok()) return false;
  obs::replay::FlightRecorder recorder;
  recorder.SetIdentity("guard-tenant", 0, 42);
  recorder.SetLoopTable(&log.loops());
  obs::ControlDecisionRecord rec;
  rec.loop = *loop;
  for (size_t i = 0; i < log.capacity(); ++i) log.Append(rec);
  constexpr int kOps = 100000;
  const double shares[3] = {8.0, 4.0, 120.0};
  uint64_t before = bench::AllocationCount();
  for (int i = 0; i < kOps; ++i) {
    rec.time = 60.0 * static_cast<double>(i);
    rec.sensed_y = 40.0 + static_cast<double>(i % 50);
    rec.raw_u = 3.0 + 0.001 * static_cast<double>(i % 100);
    rec.clamped_u = rec.raw_u;
    log.Append(rec);
    recorder.RecordDecision(rec);
    if (i % 15 == 0) recorder.RecordGrant(rec.time, 1.0, 0.5);
    if (i % 15 == 7) recorder.RecordReplan(rec.time, 0.5, shares, 3, true);
  }
  uint64_t allocs = bench::AllocationCount() - before;
  std::printf("flight recorder allocation guard: %llu allocations over %d "
              "decisions (log + recorder) + interleaved grants/re-plans "
              "(chain=%llu)\n",
              static_cast<unsigned long long>(allocs), kOps,
              static_cast<unsigned long long>(recorder.chain_hash()));
  return allocs == 0;
}

// Allocations made by `steps` ElasticityManager control steps of one
// loop with a constant sensor and a no-op actuator, on a hub whose
// decision ring holds 256 records (the size a fleet partition uses).
uint64_t ControlStepAllocations(core::ControllerKind kind, int steps) {
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry(/*decision_capacity=*/256);
  core::ElasticityManager manager(&sim, &metrics, &telemetry);
  control::ActuatorLimits limits;
  limits.min = 1.0;
  limits.max = 100.0;
  auto controller = core::MakeController(kind, 60.0, limits);
  if (!controller.ok()) return ~uint64_t{0};
  core::LayerControlConfig cfg;
  cfg.controller = std::move(*controller);
  cfg.actuator = [](double) { return Status::OK(); };
  cfg.sensor = [](SimTime) -> Result<double> { return 70.0; };
  cfg.initial_u = 10.0;
  if (!manager.Attach(std::move(cfg)).ok()) return ~uint64_t{0};
  uint64_t before = bench::AllocationCount();
  sim.RunUntil(60.0 * steps);
  return bench::AllocationCount() - before;
}

// Sixth hard guard: once the decision ring is full, a control step
// must not allocate. A step keeps nothing outside the ring, so 10,000
// steps must allocate exactly as much as 1,000 — the task-sweep guard's
// difference method, which cancels the ring's fill and any lazy set-up.
// It runs for a law whose name fits a small-string buffer and for one
// whose name does not, so a per-step copy of the name would show too.
bool ControlStepAllocationsAreFlat() {
  for (core::ControllerKind kind :
       {core::ControllerKind::kAdaptiveGain,
        core::ControllerKind::kAdaptiveGainNoMemory}) {
    uint64_t short_run = ControlStepAllocations(kind, 1000);
    uint64_t long_run = ControlStepAllocations(kind, 10000);
    std::printf("control step allocation guard: %llu allocations over "
                "10000 %s steps vs %llu over 1000 (must be equal)\n",
                static_cast<unsigned long long>(long_run),
                core::ControllerKindToString(kind).c_str(),
                static_cast<unsigned long long>(short_run));
    if (short_run == ~uint64_t{0} || long_run != short_run) return false;
  }
  return true;
}

// Fifth hard guard: the work-stealing task loop must be allocation-free
// per task in steady state. A chain of N tasks (each spawning the next)
// keeps exactly one entry in the deque, so after the first push warms
// the deque's capacity every pop/execute/spawn cycle is pure pointer
// work. Comparing a long chain against a short one cancels any per-
// sweep setup cost: the difference must be zero or the fleet's
// per-boundary task churn would allocate O(events).
bool TaskSweepSteadyStateIsAllocationFree() {
  exec::ThreadPool pool(1);  // Inline: deterministic, no worker wakeups.
  auto run_chain = [&pool](uint64_t length) -> uint64_t {
    uint64_t before = bench::AllocationCount();
    Status s = pool.RunTasks(
        1,
        [length](uint64_t id, exec::ThreadPool::TaskContext& ctx) {
          if (id + 1 < length) ctx.Spawn(id + 1);
          return Status::OK();
        });
    if (!s.ok()) return ~uint64_t{0};
    return bench::AllocationCount() - before;
  };
  run_chain(16);  // Warm one-off lazy state (locale, TLS, ...).
  uint64_t short_allocs = run_chain(16);
  uint64_t long_allocs = run_chain(100000);
  std::printf("task sweep allocation guard: %llu allocations over a 100k "
              "spawn chain vs %llu over 16 (difference must be 0)\n",
              static_cast<unsigned long long>(long_allocs),
              static_cast<unsigned long long>(short_allocs));
  return long_allocs == short_allocs;
}

// Seventh hard guard: bounded metric-store puts in steady state
// neither grow nor allocate. Once a series holds the samples its bound
// reaches, each put drops as many as it adds into the capacity already
// there. 10,000 minutes of one series bounded to 120 s.
bool BoundedMetricStoreIsAllocationFree() {
  cloudwatch::MetricStore store;
  if (!store.BoundHistory(120.0).ok()) return false;
  const cloudwatch::MetricId id{"Flower/Storm", "CpuUtilization", "c"};
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    t += 60.0;
    if (!store.Put(id, t, 50.0).ok()) return false;
  }
  uint64_t before = bench::AllocationCount();
  for (int i = 0; i < 10000; ++i) {
    t += 60.0;
    if (!store.Put(id, t, static_cast<double>(i % 100)).ok()) return false;
  }
  uint64_t allocs = bench::AllocationCount() - before;
  size_t held = (*store.GetSeries(id))->size();
  std::printf("metric store allocation guard: %llu allocations over 10000 "
              "bounded puts (series holds %zu)\n",
              static_cast<unsigned long long>(allocs), held);
  return allocs == 0 && held == 2;
}

// Capacity-stability assertion: FleetManager::RunFor must reserve its
// report vector exactly once per sweep — steady-state report appends
// never reallocate, and repeated sweeps keep capacity == size. Guards
// the reserve sizing from silently rotting into growth-doubling.
bool FleetReportsCapacityIsStable() {
  fleet::FleetConfig config;
  config.fleet_budget_usd_per_hour = 2.0;
  config.arbitration_period_sec = 300.0;
  config.partition.workload_emit_period_sec = 10.0;
  config.partition.storm_tick_period_sec = 10.0;
  config.arbiter_solver.population_size = 16;
  config.arbiter_solver.generations = 8;
  config.partition.flow_solver.population_size = 8;
  config.partition.flow_solver.generations = 4;
  fleet::FleetManager manager(config);
  for (fleet::TenantConfig& t : fleet::MakeTenantFleet(3, 7)) {
    if (!manager.AddTenant(std::move(t)).ok()) return false;
  }
  if (!manager.Start().ok()) return false;
  for (int sweep = 0; sweep < 3; ++sweep) {
    if (!manager.RunFor(900.0).ok()) return false;
    if (manager.reports().capacity() != manager.reports().size()) {
      std::printf("fleet reports capacity guard: sweep %d capacity %zu != "
                  "size %zu\n",
                  sweep, manager.reports().capacity(),
                  manager.reports().size());
      return false;
    }
  }
  std::printf("fleet reports capacity guard: capacity == size (%zu) across "
              "3 sweeps\n",
              manager.reports().size());
  return true;
}

}  // namespace
}  // namespace flower

// BENCHMARK_MAIN, plus the allocation guards up front.
int main(int argc, char** argv) {
  if (!flower::MetricsHotPathIsAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: metrics hot path allocated; registry is not "
                 "allocation-free\n");
    return 1;
  }
  if (!flower::PlannerSteadyStateIsAllocationLean()) {
    std::fprintf(stderr,
                 "FAIL: NSGA-II generation loop allocated in steady state\n");
    return 1;
  }
  if (!flower::SimSteadyTickIsAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: steady-state simulation tick allocated\n");
    return 1;
  }
  if (!flower::OverloadRejectionsAreAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: throttled Kinesis/DynamoDB requests allocated\n");
    return 1;
  }
  if (!flower::GeneratorSteadyBatchIsAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: click generator allocated on its steady batch\n");
    return 1;
  }
  if (!flower::FlightRecorderHotPathIsAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: flight recorder allocated on its hot path\n");
    return 1;
  }
  if (!flower::BoundedMetricStoreIsAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: bounded metric store allocated in steady state\n");
    return 1;
  }
  if (!flower::TaskSweepSteadyStateIsAllocationFree()) {
    std::fprintf(stderr,
                 "FAIL: work-stealing task loop allocated in steady state\n");
    return 1;
  }
  if (!flower::ControlStepAllocationsAreFlat()) {
    std::fprintf(stderr,
                 "FAIL: control steps allocated past the decision ring's "
                 "fill\n");
    return 1;
  }
  if (!flower::FleetReportsCapacityIsStable()) {
    std::fprintf(stderr,
                 "FAIL: fleet report vector reallocated in steady state\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
