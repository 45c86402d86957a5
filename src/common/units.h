#ifndef FLOWER_COMMON_UNITS_H_
#define FLOWER_COMMON_UNITS_H_

#include <cstdint>

namespace flower {

/// Time unit helpers: Flower's simulated clock counts seconds.
constexpr double kSecond = 1.0;
constexpr double kMinute = 60.0;
constexpr double kHour = 3600.0;
constexpr double kDay = 86400.0;

/// Data size helpers (bytes).
constexpr int64_t kKiB = 1024;
constexpr int64_t kMiB = 1024 * kKiB;
constexpr int64_t kGiB = 1024 * kMiB;

/// Kinesis service limits (per shard), matching the published AWS
/// contract the paper relies on ("each Shard supports up to 1,000
/// records/second for writes").
constexpr double kKinesisShardWriteRecordsPerSec = 1000.0;
constexpr int64_t kKinesisShardWriteBytesPerSec = 1 * kMiB;
constexpr int64_t kKinesisShardReadBytesPerSec = 2 * kMiB;
constexpr double kKinesisShardReadCallsPerSec = 5.0;

/// Ceiling on a flow's peak offered rate, per shard its stream may
/// scale to: ten times the write limit. Past the limit every record is
/// throttled at PutRecord, so a higher rate adds only rejected work
/// (perf_micro's overload guard offers 10x), while an unbounded one
/// (1e300 records/s) never finishes generating its first tick.
constexpr double kMaxOfferedRecordsPerSecPerShard =
    10.0 * kKinesisShardWriteRecordsPerSec;

/// DynamoDB capacity-unit contract: one WCU = one 1 KiB write/s,
/// one RCU = one strongly consistent 4 KiB read/s.
constexpr int64_t kDynamoWcuBytes = 1 * kKiB;
constexpr int64_t kDynamoRcuBytes = 4 * kKiB;

}  // namespace flower

#endif  // FLOWER_COMMON_UNITS_H_
