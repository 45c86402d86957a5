#ifndef FLOWER_DYNAMODB_TABLE_H_
#define FLOWER_DYNAMODB_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cloudwatch/metric_store.h"
#include "common/result.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace flower::dynamodb {

/// Configuration of a simulated DynamoDB table.
struct TableConfig {
  std::string name = "aggregates";
  double initial_wcu = 5.0;
  double initial_rcu = 5.0;
  double min_wcu = 1.0;
  double max_wcu = 40000.0;
  double min_rcu = 1.0;
  double max_rcu = 40000.0;
  /// Provisioned-throughput changes apply after this delay (the real
  /// service takes seconds to minutes).
  double provisioning_delay_sec = 30.0;
  /// Unused capacity accumulates for bursts up to this many seconds
  /// (DynamoDB's documented 300 s burst window).
  double burst_window_sec = 300.0;
  /// Max capacity decreases per simulated day; <= 0 means unlimited.
  /// (The 2017-era service limited dial-downs per table per day.)
  int max_decreases_per_day = 0;
  double metrics_period_sec = 60.0;
};

/// One item of a batch write: its key and numeric value.
struct PutRequest {
  int64_t key = 0;
  double value = 0.0;
};

/// Simulated Amazon DynamoDB table (the storage layer).
///
/// Provisioned-throughput contract: writes consume ceil(size / 1 KiB)
/// write capacity units, strongly consistent reads consume
/// ceil(size / 4 KiB) read capacity units. Tokens refill at the
/// provisioned per-second rate and accumulate up to the burst window;
/// requests beyond that throttle (`Status::Throttled`). Capacity
/// changes (Flower's storage actuator) apply after a provisioning
/// delay, and decreases can be limited per day as on the 2017 service.
///
/// The table actually stores items (key → numeric value) so integration
/// tests can verify end-to-end flow correctness, not just throughput
/// accounting. Items sit in one vector sorted by key, with no heap node
/// per item. A batch write seeks each key forward from the previous
/// one, so a batch of ascending keys walks the items once.
///
/// Published metrics (namespace "Flower/DynamoDB", dimension = table,
/// one datapoint per metrics period), each with its readers:
///   WriteUtilization              — consumed / provisioned WCU, %: the
///                                   storage sensor, FIG6, flower-sim
///                                   and the examples' dashboards and
///                                   alarms
///   ConsumedWriteCapacityUnits    — mean consumed WCU/s: EQ2 and
///                                   dependency analysis
///   ProvisionedWriteCapacityUnits — provisioned WCU: FIG6
/// Reads are billed against the provisioned RCU but publish nothing;
/// the item count is the `ItemCount` accessor.
class Table {
 public:
  Table(sim::Simulation* sim, cloudwatch::MetricStore* metrics,
        TableConfig config);

  /// Writes (or overwrites) an item: `PutItems` of one. Throttles when
  /// write tokens are exhausted.
  Status PutItem(int64_t key, double value, int32_t size_bytes);

  /// Writes n items in order, each of `size_bytes` (the service's
  /// BatchWriteItem): `item(i)` for i in [0, n) returns the i-th
  /// PutRequest. Returns how many were written. Each item is billed
  /// exactly as one PutItem call would bill it, in order, until one
  /// does not fit: that one counts as one throttled write, and neither
  /// it nor any later item is written. A later item of a batch
  /// overwrites an earlier one of the same key. `*status`, when still
  /// OK, receives Throttled after a throttle and InvalidArgument for a
  /// non-positive size, which writes and bills nothing. A template, so
  /// the caller's items are read in place, with no copy.
  template <typename ItemAt>
  size_t PutItems(size_t n, int32_t size_bytes, ItemAt&& item,
                  Status* status);

  /// Strongly consistent read. Throttles when read tokens are
  /// exhausted; NotFound for missing keys.
  Result<double> GetItem(int64_t key, int32_t size_bytes);

  /// Atomic counter update (the UpdateItem ADD pattern): adds `delta`
  /// to the stored value in place for one write's worth of capacity.
  /// Missing items start from 0. Returns the new value. Errors:
  /// throttled.
  Result<double> UpdateItemAdd(int64_t key, double delta,
                               int32_t size_bytes);

  /// Deletes an item (idempotent — deleting a missing key succeeds, as
  /// on the real service). Consumes one write's worth of capacity.
  Status DeleteItem(int64_t key, int32_t size_bytes);

  /// Requests new provisioned throughput; applied after the
  /// provisioning delay. Errors: outside [min, max], or the daily
  /// decrease limit is exhausted.
  Status SetProvisionedThroughput(double wcu, double rcu);

  double provisioned_wcu() const { return wcu_; }
  double provisioned_rcu() const { return rcu_; }
  double pending_wcu() const { return pending_wcu_; }
  bool provisioning_in_flight() const { return change_in_flight_; }

  size_t ItemCount() const { return items_.size(); }
  uint64_t total_throttled_writes() const { return total_throttled_writes_; }
  uint64_t total_throttled_reads() const { return total_throttled_reads_; }
  uint64_t total_writes() const { return total_writes_; }
  const TableConfig& config() const { return config_; }
  /// The stored items in ascending key order, read without billing (an
  /// inspection hook for checks, not a service call).
  const std::vector<std::pair<int64_t, double>>& items() const {
    return items_;
  }

  /// Average consumed WCU/s since the start of the current metrics
  /// period (the utilization signal Flower's storage controller reads).
  double CurrentWriteUtilizationPct() const;

 private:
  void RefillTokens(SimTime now);
  /// Bills up to `n` writes of `size_bytes` (> 0) each against the
  /// write tokens at the current time: refills once, charges each write
  /// in order while the tokens cover it, and counts the first that they
  /// do not cover as one throttled write. Returns how many were charged.
  size_t ChargeWrites(size_t n, int32_t size_bytes);
  /// PutItems' billing: how many of n writes of `size_bytes` are
  /// admitted, with the size check and the status.
  size_t AdmitPuts(size_t n, int32_t size_bytes, Status* status);
  void PublishMetrics();
  using Items = std::vector<std::pair<int64_t, double>>;
  using ItemIt = Items::iterator;
  /// First item whose key is not below `key`.
  ItemIt LowerBound(int64_t key);
  /// Stores `item` at its key, sought by galloping forward from `from`
  /// (at or before the key's position); returns where it is stored.
  ItemIt StoreFrom(ItemIt from, const PutRequest& item);
  /// The item of `key`, inserted with value 0 when missing.
  double& Item(int64_t key);

  sim::Simulation* sim_;
  cloudwatch::MetricStore* metrics_;
  TableConfig config_;
  Items items_;  ///< Ascending key.

  double wcu_;
  double rcu_;
  double pending_wcu_;
  double pending_rcu_;
  bool change_in_flight_ = false;
  uint64_t change_epoch_ = 0;

  double write_tokens_;
  double read_tokens_;
  SimTime last_refill_ = 0.0;

  int decreases_today_ = 0;
  int64_t current_day_ = 0;

  uint64_t total_writes_ = 0;
  uint64_t total_throttled_writes_ = 0;
  uint64_t total_throttled_reads_ = 0;

  double period_consumed_wcu_ = 0.0;
  SimTime period_start_ = 0.0;
};

template <typename ItemAt>
size_t Table::PutItems(size_t n, int32_t size_bytes, ItemAt&& item,
                       Status* status) {
  const size_t written = AdmitPuts(n, size_bytes, status);
  // The cursor seeks each key forward from the previous item; a key
  // not above the previous one seeks from the front again. The window
  // emits a boundary's aggregates in ascending key, so a persist run
  // is a few ascending runs.
  ItemIt at = items_.begin();
  int64_t previous = 0;
  for (size_t i = 0; i < written; ++i) {
    const PutRequest request = item(i);
    if (i > 0 && request.key <= previous) at = items_.begin();
    at = StoreFrom(at, request);
    previous = request.key;
  }
  return written;
}

}  // namespace flower::dynamodb

#endif  // FLOWER_DYNAMODB_TABLE_H_
