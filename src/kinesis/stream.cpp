#include "kinesis/stream.h"

#include <algorithm>

#include "common/logging.h"

namespace flower::kinesis {

namespace {
constexpr const char* kNamespace = "Flower/Kinesis";
}

Stream::Stream(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
               StreamConfig config)
    : sim_(sim), metrics_(metrics), config_(std::move(config)) {
  int n = std::clamp(config_.initial_shards, config_.min_shards,
                     config_.max_shards);
  shards_.resize(static_cast<size_t>(n));
  for (Shard& s : shards_) s.last_refill = sim_->Now();
  target_shards_ = n;
  period_start_ = sim_->Now();
  if (metrics_ != nullptr) {
    Status st = sim_->SchedulePeriodic(
        sim_->Now() + config_.metrics_period_sec, config_.metrics_period_sec,
        [this] {
          PublishMetrics();
          return true;
        });
    FLOWER_CHECK(st.ok()) << st.ToString();
  }
}

void Stream::RefillTokens(Shard* shard, SimTime now) {
  double dt = now - shard->last_refill;
  if (dt <= 0.0) return;
  shard->record_tokens =
      std::min(kKinesisShardWriteRecordsPerSec,
               shard->record_tokens + dt * kKinesisShardWriteRecordsPerSec);
  shard->byte_tokens = std::min(
      static_cast<double>(kKinesisShardWriteBytesPerSec),
      shard->byte_tokens + dt * static_cast<double>(kKinesisShardWriteBytesPerSec));
  shard->read_byte_tokens = std::min(
      static_cast<double>(kKinesisShardReadBytesPerSec),
      shard->read_byte_tokens +
          dt * static_cast<double>(kKinesisShardReadBytesPerSec));
  shard->read_call_tokens =
      std::min(kKinesisShardReadCallsPerSec,
               shard->read_call_tokens + dt * kKinesisShardReadCallsPerSec);
  shard->last_refill = now;
}

Status Stream::PutRecord(const Record& record) {
  if (PutRecords(&record, 1) == 0) return Status::OK();
  // A literal that fits std::string's inline buffer: rejecting a put
  // allocates nothing, however deep the overload.
  return Status::Throttled("put throttled");
}

size_t Stream::PutRecords(const Record* records, size_t n) {
  const SimTime now = sim_->Now();
  const size_t shard_n = shards_.size();
  size_t throttled = 0;
  for (size_t i = 0; i < n; ++i) {
    const Record& record = records[i];
    // One shard needs no 64-bit division to be chosen.
    Shard& shard =
        shards_[shard_n == 1 ? 0 : record.partition_key % shard_n];
    RefillTokens(&shard, now);
    const double bytes = static_cast<double>(record.size_bytes);
    if (shard.record_tokens < 1.0 || shard.byte_tokens < bytes) {
      ++throttled;
      continue;
    }
    shard.record_tokens -= 1.0;
    shard.byte_tokens -= bytes;
    // Copied into its ring slot and stamped there: no stamped copy on
    // the stack to reload.
    shard.buffer.push_back(record);
    shard.buffer.back().timestamp = now;
  }
  total_throttled_ += throttled;
  period_throttled_ += throttled;
  total_incoming_ += n - throttled;
  period_incoming_ += n - throttled;
  return throttled;
}

Result<std::vector<Record>> Stream::GetRecords(int shard_index,
                                               size_t max_records) {
  std::vector<Record> out;
  Status st = GetRecordsInto(shard_index, max_records, &out);
  if (!st.ok()) return st;
  return out;
}

Status Stream::GetRecordsInto(int shard_index, size_t max_records,
                              std::vector<Record>* out) {
  return ReadRecords(shard_index, max_records,
                     [out](const Record* records, size_t n) {
                       out->insert(out->end(), records, records + n);
                     });
}

Status Stream::AdmitRead(int shard_index, size_t max_records,
                         size_t* admitted) {
  if (shard_index < 0 || shard_index >= shard_count()) {
    return Status::OutOfRange("Kinesis '" + config_.name +
                              "': shard index out of range");
  }
  Shard& shard = shards_[static_cast<size_t>(shard_index)];
  RefillTokens(&shard, sim_->Now());
  if (shard.read_call_tokens < 1.0) {
    ++total_read_throttles_;
    return Status::Throttled("get throttled");
  }
  shard.read_call_tokens -= 1.0;
  // Count what the read-byte bucket admits, charging each record in
  // FIFO order as a record-at-a-time read would.
  const size_t limit = std::min(max_records, shard.buffer.size());
  double tokens = shard.read_byte_tokens;
  size_t n = 0;
  while (n < limit) {
    const double bytes = static_cast<double>(shard.buffer[n].size_bytes);
    // The first record of a call always fits (matching the service,
    // which never returns an empty batch just because of byte limits).
    if (n > 0 && tokens < bytes) break;
    tokens -= bytes;
    ++n;
  }
  shard.read_byte_tokens = tokens;
  *admitted = n;
  return Status::OK();
}

Stream::Shard Stream::MakeChildShard(SimTime now) {
  Shard s;
  s.record_tokens = 0.0;
  s.byte_tokens = 0.0;
  s.read_byte_tokens = 0.0;
  s.read_call_tokens = 0.0;
  s.last_refill = now;
  return s;
}

Status Stream::UpdateShardCount(int target) {
  if (target < config_.min_shards || target > config_.max_shards) {
    return Status::InvalidArgument(
        "Kinesis '" + config_.name + "': target shard count " +
        std::to_string(target) + " outside [" +
        std::to_string(config_.min_shards) + ", " +
        std::to_string(config_.max_shards) + "]");
  }
  target_shards_ = target;
  if (target == shard_count() && !reshard_in_flight_) return Status::OK();
  reshard_in_flight_ = true;
  uint64_t epoch = ++reshard_epoch_;
  return sim_->ScheduleAfter(config_.reshard_delay_sec, [this, epoch] {
    if (epoch != reshard_epoch_) return;  // Superseded by a newer request.
    ApplyReshard(target_shards_);
    reshard_in_flight_ = false;
  });
}

double Stream::OldestRecordAgeSec() const {
  SimTime now = sim_->Now();
  double oldest = now;
  bool any = false;
  for (const Shard& s : shards_) {
    if (!s.buffer.empty()) {
      oldest = std::min(oldest, s.buffer.front().timestamp);
      any = true;
    }
  }
  return any ? now - oldest : 0.0;
}

void Stream::ApplyReshard(int target) {
  int current = shard_count();
  if (target == current) return;
  SimTime now = sim_->Now();
  if (target > current) {
    // Scale-out conserves the tokens banked by the live shards: refill
    // everyone to `now`, then divide the totals evenly across the
    // post-reshard fleet. resize() would default-construct the new
    // shards with full buckets — a free burst of (target - current) ×
    // 1000 records (plus bytes and read quota) the instant the reshard
    // lands, above any per-shard limit. Zero-token children would err
    // the other way, throttling legitimate traffic that arrives in the
    // same instant. Each share is total/target ≤ capacity, so no
    // clamping is needed, and the added capacity shows up where it
    // should: in the refill *rate*, now target × per-shard.
    double rec = 0.0, wbytes = 0.0, rbytes = 0.0, rcalls = 0.0;
    for (Shard& s : shards_) {
      RefillTokens(&s, now);
      rec += s.record_tokens;
      wbytes += s.byte_tokens;
      rbytes += s.read_byte_tokens;
      rcalls += s.read_call_tokens;
    }
    shards_.reserve(static_cast<size_t>(target));
    for (int i = current; i < target; ++i) {
      shards_.push_back(MakeChildShard(now));
    }
    double inv = 1.0 / static_cast<double>(target);
    for (Shard& s : shards_) {
      s.record_tokens = rec * inv;
      s.byte_tokens = wbytes * inv;
      s.read_byte_tokens = rbytes * inv;
      s.read_call_tokens = rcalls * inv;
      s.last_refill = now;
    }
    return;
  }
  // Shrink: merge buffered records of removed shards into survivors
  // (round-robin) so no data is lost.
  size_t rr = 0;
  for (int i = target; i < current; ++i) {
    auto& victim = shards_[static_cast<size_t>(i)].buffer;
    while (!victim.empty()) {
      shards_[rr % static_cast<size_t>(target)].buffer.push_back(
          victim.front());
      victim.pop_front();
      ++rr;
    }
  }
  shards_.resize(static_cast<size_t>(target));
}

size_t Stream::BacklogRecords() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.buffer.size();
  return total;
}

double Stream::CurrentWriteUtilizationPct() const {
  SimTime now = sim_->Now();
  double elapsed = now - period_start_;
  if (elapsed <= 0.0) return 0.0;
  double rate = static_cast<double>(period_incoming_) / elapsed;
  double capacity = static_cast<double>(shard_count()) *
                    kKinesisShardWriteRecordsPerSec;
  return capacity > 0.0 ? 100.0 * rate / capacity : 0.0;
}

void Stream::PublishMetrics() {
  SimTime now = sim_->Now();
  cloudwatch::MetricStore& m = *metrics_;
  auto put = [&](const char* name, double v) {
    Status st = m.Put({kNamespace, name, config_.name}, now, v);
    FLOWER_CHECK(st.ok()) << st.ToString();
  };
  put("IncomingRecords", static_cast<double>(period_incoming_));
  put("ThrottledRecords", static_cast<double>(period_throttled_));
  put("WriteUtilization", CurrentWriteUtilizationPct());
  put("ShardCount", static_cast<double>(shard_count()));
  period_incoming_ = 0;
  period_throttled_ = 0;
  period_start_ = now;
}

}  // namespace flower::kinesis
