#include "workload/clickstream.h"

#include <cmath>

#include "common/logging.h"

namespace flower::workload {

namespace {

// Zipf weights over num_urls ranks with the given skew.
std::vector<double> ZipfWeights(int64_t n, double skew) {
  std::vector<double> w(static_cast<size_t>(n));
  for (int64_t k = 1; k <= n; ++k) {
    w[static_cast<size_t>(k - 1)] =
        1.0 / std::pow(static_cast<double>(k), skew);
  }
  return w;
}

}  // namespace

ClickStreamGenerator::ClickStreamGenerator(
    sim::Simulation* sim, kinesis::Stream* stream,
    std::shared_ptr<ArrivalProcess> arrival, ClickStreamConfig config,
    uint64_t seed)
    : sim_(sim), stream_(stream), arrival_(std::move(arrival)),
      config_(config),
      urls_(ZipfWeights(config_.num_urls, config_.url_zipf_skew)) {
  FLOWER_CHECK(config_.generator_instances > 0);
  Rng seeder(seed);
  for (int i = 0; i < config_.generator_instances; ++i) {
    instances_.emplace_back(seeder.Next());
  }
  for (size_t i = 0; i < instances_.size(); ++i) {
    // Stagger instance start offsets inside one emit period so batches
    // do not all land on the same instant.
    double offset = config_.emit_period_sec *
                    (static_cast<double>(i) /
                     static_cast<double>(instances_.size()));
    Status st = sim_->SchedulePeriodic(
        sim_->Now() + config_.emit_period_sec + offset,
        config_.emit_period_sec, [this, i] {
          if (!running_) return false;
          EmitBatch(i);
          return true;
        });
    FLOWER_CHECK(st.ok()) << st.ToString();
  }
}

void ClickStreamGenerator::EmitBatch(size_t instance_index) {
  SimTime now = sim_->Now();
  double share = arrival_->RatePerSec(now) /
                 static_cast<double>(instances_.size());
  double expected = share * config_.emit_period_sec;
  if (expected <= 0.0) return;
  const int64_t count = instances_[instance_index].Poisson(expected);
  // The records are drawn from a local copy of the instance's
  // generator, written back after the batch: the record writes below
  // could alias the member, which would then be stored on every record.
  Rng rng = instances_[instance_index];
  // The batch is drawn into scratch owned by the calling thread, not by
  // the generator: a fleet runs one generator per tenant on a few
  // workers, and a buffer each would hold a batch of memory per tenant.
  thread_local std::vector<kinesis::Record> batch;
  batch.resize(static_cast<size_t>(count));
  for (kinesis::Record& rec : batch) {
    const int64_t user_id = rng.UniformInt(0, config_.num_users - 1);
    rec.entity_id = urls_.Sample(&rng);
    int32_t jitter = static_cast<int32_t>(rng.UniformInt(
        -config_.record_bytes_jitter, config_.record_bytes_jitter));
    rec.size_bytes = std::max(32, config_.record_bytes_mean + jitter);
    rec.partition_key = SplitMix64(static_cast<uint64_t>(user_id));
  }
  instances_[instance_index] = rng;
  total_generated_ += batch.size();
  total_dropped_ += stream_->PutRecords(batch.data(), batch.size());
}

}  // namespace flower::workload
