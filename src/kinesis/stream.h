#ifndef FLOWER_KINESIS_STREAM_H_
#define FLOWER_KINESIS_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloudwatch/metric_store.h"
#include "common/result.h"
#include "common/units.h"
#include "common/vec_deque.h"
#include "sim/simulation.h"

namespace flower::kinesis {

/// One ingested record. The payload is abstracted to the fields the
/// downstream click-stream topology needs: a partition key (routes the
/// record to a shard), an entity id (e.g. the clicked URL), and a size.
struct Record {
  SimTime timestamp = 0.0;
  uint64_t partition_key = 0;
  int64_t entity_id = 0;
  int32_t size_bytes = 256;
};

/// Configuration of a simulated stream.
struct StreamConfig {
  std::string name = "clickstream";
  int initial_shards = 1;
  int min_shards = 1;
  int max_shards = 500;
  /// UpdateShardCount completes after this many simulated seconds
  /// (resharding is not instantaneous on the real service).
  double reshard_delay_sec = 60.0;
  /// Period of metric publication to the metric store.
  double metrics_period_sec = 60.0;
};

/// Simulated Amazon Kinesis stream (the ingestion layer).
///
/// Behaviourally faithful to the published service contract the paper
/// relies on: each shard accepts at most 1,000 records/s and 1 MiB/s of
/// writes (token buckets, continuously refilled); excess writes fail
/// with `Status::Throttled` (ProvisionedThroughputExceeded). Records
/// are routed to shards by partition key and buffered until a consumer
/// fetches them with `GetRecords`. `UpdateShardCount` (the elasticity
/// actuator) takes effect after a resharding delay.
///
/// Published metrics (namespace "Flower/Kinesis", dimension = stream
/// name, one datapoint per metrics period), each with its readers:
///   WriteUtilization — accepted rate / (shards × 1,000 rec/s), %: the
///                      ingestion sensor, FIG6, flower-sim and the
///                      examples' dashboards and alarms
///   IncomingRecords  — accepted records in the period: the feedforward
///                      controllers' arrival rate, FIG2, EQ2 and
///                      dependency analysis
///   ThrottledRecords — rejected records in the period: the feedforward
///                      arrival rate and the dashboard's throttle alarm
///   ShardCount       — provisioned shards: FIG6 and the dashboards
/// Backlog and consumer lag are accessors (`BacklogRecords`,
/// `OldestRecordAgeSec`), not series.
class Stream {
 public:
  /// Starts the periodic metrics publication on `sim`.
  /// `metrics` may be nullptr (no publication, for unit tests).
  Stream(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
         StreamConfig config);

  /// Ingests one record at the current simulated time. Returns
  /// Throttled when the target shard's write quota is exhausted.
  Status PutRecord(const Record& record);

  /// Ingests `records[0 .. n)` at the current simulated time, in order,
  /// each routed, refilled and charged exactly as one PutRecord call
  /// would (the service's PutRecords). Returns how many were throttled
  /// (the service's FailedRecordCount).
  size_t PutRecords(const Record* records, size_t n);

  /// Fetches up to `max_records` buffered records from shard
  /// `shard_index` (FIFO), subject to the published read limits:
  /// 5 GetRecords calls/s and 2 MiB/s per shard (both token buckets).
  /// Errors: index out of range; Throttled when either read quota is
  /// exhausted.
  Result<std::vector<Record>> GetRecords(int shard_index,
                                         size_t max_records);

  /// Same contract as GetRecords, appending into `*out` instead of
  /// returning a fresh vector — the per-tick consumer path (the flow
  /// spout) reuses one warm buffer instead of allocating per call.
  /// `*out` is untouched on error.
  Status GetRecordsInto(int shard_index, size_t max_records,
                        std::vector<Record>* out);

  uint64_t total_read_throttles() const { return total_read_throttles_; }

  /// Requests a new shard count; applied after the resharding delay.
  /// While a reshard is in flight, further requests supersede it.
  /// Errors: target outside [min_shards, max_shards].
  Status UpdateShardCount(int target);

  /// Age (seconds) of the oldest buffered record across all shards —
  /// the consumer-lag signal (GetRecords.IteratorAge). 0 when empty.
  double OldestRecordAgeSec() const;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int target_shard_count() const { return target_shards_; }
  bool resharding() const { return reshard_in_flight_; }

  /// Total records buffered across all shards.
  size_t BacklogRecords() const;

  uint64_t total_incoming() const { return total_incoming_; }
  uint64_t total_throttled() const { return total_throttled_; }
  const StreamConfig& config() const { return config_; }

  /// Write utilization over the lifetime of the current metrics period,
  /// in percent of aggregate shard write capacity.
  double CurrentWriteUtilizationPct() const;

 private:
  struct Shard {
    VecDeque<Record> buffer;
    // Continuous-refill token buckets (write and read paths). Shards
    // created at stream construction start full (a fresh stream has a
    // full second of quota); shards created by a mid-run reshard
    // inherit an even share of the tokens already banked by the live
    // shards (see ApplyReshard) so scale-out conserves the stream's
    // instantaneous capacity — no free burst, no spurious throttles on
    // traffic arriving the instant the reshard lands.
    double record_tokens = kKinesisShardWriteRecordsPerSec;
    double byte_tokens = static_cast<double>(kKinesisShardWriteBytesPerSec);
    double read_byte_tokens =
        static_cast<double>(kKinesisShardReadBytesPerSec);
    double read_call_tokens = kKinesisShardReadCallsPerSec;
    SimTime last_refill = 0.0;
  };

  /// A shard born mid-run: zero tokens, refill clock anchored at `now`.
  /// ApplyReshard seeds the token fields with a share of the live
  /// shards' banked tokens. The explicit `last_refill = now` matters:
  /// a zero/stale refill timestamp would mint a full catch-up
  /// bucket on the shard's first touch, letting a 2→8 scale-out accept
  /// a burst of 6×1000 records in one instant — above any per-shard
  /// limit.
  static Shard MakeChildShard(SimTime now);

  void RefillTokens(Shard* shard, SimTime now);
  void ApplyReshard(int target);
  void PublishMetrics();

  sim::Simulation* sim_;
  cloudwatch::MetricStore* metrics_;
  StreamConfig config_;
  std::vector<Shard> shards_;
  int target_shards_;
  bool reshard_in_flight_ = false;
  uint64_t reshard_epoch_ = 0;

  uint64_t total_incoming_ = 0;
  uint64_t total_throttled_ = 0;
  uint64_t total_read_throttles_ = 0;
  // Period counters (reset after each publication).
  uint64_t period_incoming_ = 0;
  uint64_t period_throttled_ = 0;
  SimTime period_start_ = 0.0;
};

}  // namespace flower::kinesis

#endif  // FLOWER_KINESIS_STREAM_H_
