#ifndef FLOWER_FLOW_BOLTS_H_
#define FLOWER_FLOW_BOLTS_H_

#include <memory>
#include <string>

#include "dynamodb/table.h"
#include "flow/sliding_window.h"
#include "storm/topology.h"

namespace flower::flow {

/// Aggregating bolt: feeds every input click into a
/// SlidingWindowCounter and emits one (url, count) tuple per tracked
/// URL at each slide boundary.
class WindowCountBolt final : public storm::BoltLogic {
 public:
  explicit WindowCountBolt(SlidingWindowCounter counter)
      : counter_(std::move(counter)) {}

  size_t ExecuteBatch(const storm::Tuple* in, size_t n, SimTime now,
                      VecDeque<storm::Tuple>* out, Status* status) override;

  uint64_t emitted_aggregates() const { return emitted_; }

 private:
  SlidingWindowCounter counter_;
  uint64_t emitted_ = 0;
};

/// Terminal bolt: persists each aggregate tuple into DynamoDB, one
/// batch write (`Table::PutItems`) per run of tuples. A throttled write
/// is surfaced as a retryable status so the cluster re-queues the tuple
/// (storage backpressure into the analytics layer).
class PersistBolt final : public storm::BoltLogic {
 public:
  /// `item_bytes` is the serialized aggregate item size (1 WCU each at
  /// the default 128 bytes).
  PersistBolt(dynamodb::Table* table, int32_t item_bytes = 128)
      : table_(table), item_bytes_(item_bytes) {}

  size_t ExecuteBatch(const storm::Tuple* in, size_t n, SimTime now,
                      VecDeque<storm::Tuple>* out, Status* status) override;

  uint64_t persisted() const { return persisted_; }

 private:
  dynamodb::Table* table_;
  int32_t item_bytes_;
  uint64_t persisted_ = 0;
};

}  // namespace flower::flow

#endif  // FLOWER_FLOW_BOLTS_H_
