#ifndef FLOWER_WORKLOAD_CLICKSTREAM_H_
#define FLOWER_WORKLOAD_CLICKSTREAM_H_

#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "kinesis/stream.h"
#include "sim/simulation.h"
#include "workload/arrival.h"

namespace flower::workload {

/// Configuration of the click-stream generator (the simulated
/// counterpart of the paper's "random multi-threaded click stream
/// generator deployed on several EC2 instances").
struct ClickStreamConfig {
  int64_t num_users = 100000;
  int64_t num_urls = 1000;
  double url_zipf_skew = 1.1;   ///< Clicks concentrate on popular URLs.
  int32_t record_bytes_mean = 256;
  int32_t record_bytes_jitter = 64;  ///< Uniform +/- jitter.
  /// Emulated generator instances; each holds an equal share of the
  /// arrival intensity and its own random stream, mirroring the demo's
  /// multi-instance deployment.
  int generator_instances = 4;
  /// How often each instance flushes a batch of events (seconds).
  double emit_period_sec = 1.0;
};

/// Generates click events at the intensity of an `ArrivalProcess` and
/// pushes them into a Kinesis stream. Throttled puts are counted as
/// dropped (producers in the demo architecture drop on sustained
/// throttle after retries; the count is the user-visible data-loss
/// signal).
class ClickStreamGenerator {
 public:
  /// Starts `generator_instances` periodic emitters on `sim`.
  ClickStreamGenerator(sim::Simulation* sim, kinesis::Stream* stream,
                       std::shared_ptr<ArrivalProcess> arrival,
                       ClickStreamConfig config, uint64_t seed);

  /// Stops all emitters (takes effect at their next firing).
  void Stop() { running_ = false; }

  uint64_t total_generated() const { return total_generated_; }
  uint64_t total_dropped() const { return total_dropped_; }
  const ClickStreamConfig& config() const { return config_; }

  /// Expected aggregate rate at time t (for test assertions).
  double ExpectedRate(SimTime t) const { return arrival_->RatePerSec(t); }

 private:
  struct Instance {
    Rng rng;
    std::discrete_distribution<int64_t> url_dist;
    explicit Instance(uint64_t seed) : rng(seed) {}
  };

  void EmitBatch(size_t instance_index);

  sim::Simulation* sim_;
  kinesis::Stream* stream_;
  std::shared_ptr<ArrivalProcess> arrival_;
  ClickStreamConfig config_;
  std::vector<std::unique_ptr<Instance>> instances_;
  bool running_ = true;
  uint64_t total_generated_ = 0;
  uint64_t total_dropped_ = 0;
};

}  // namespace flower::workload

#endif  // FLOWER_WORKLOAD_CLICKSTREAM_H_
