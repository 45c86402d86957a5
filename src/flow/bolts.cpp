#include "flow/bolts.h"

namespace flower::flow {

size_t WindowCountBolt::ExecuteBatch(const storm::Tuple* in, size_t n,
                                     SimTime now,
                                     VecDeque<storm::Tuple>* out,
                                     Status* /*status*/) {
  if (n == 0) return 0;
  // Every input of a batch arrives at `now`, so only the first one can
  // find a slide boundary due: it is added, the boundary's aggregates
  // are emitted stamped with its origin time, then the rest are added
  // in one call.
  counter_.Add(in[0].entity_id, now, in[0].value);
  if (counter_.BoundaryDue(now)) {
    const SimTime origin = in[0].origin_time;
    counter_.AdvanceTo(now, [this, origin, out](int64_t entity, double count,
                                                SimTime) {
      storm::Tuple agg;
      agg.origin_time = origin;
      agg.entity_id = entity;
      agg.value = count;
      agg.size_bytes = 128;
      out->push_back(agg);
      ++emitted_;
    });
  }
  const storm::Tuple* rest = in + 1;
  counter_.AddBatch(now, n - 1, [rest](size_t i) {
    return std::pair<int64_t, double>(rest[i].entity_id, rest[i].value);
  });
  return n;
}

size_t PersistBolt::ExecuteBatch(const storm::Tuple* in, size_t n,
                                 SimTime /*now*/,
                                 VecDeque<storm::Tuple>* /*out*/,
                                 Status* status) {
  // One batch write per run, reading the keys and values in place.
  Status st;
  const size_t written = table_->PutItems(
      n, item_bytes_,
      [in](size_t i) {
        return dynamodb::PutRequest{in[i].entity_id, in[i].value};
      },
      &st);
  persisted_ += written;
  if (st.ok()) return n;
  if (status->ok()) *status = st;
  // A throttle leaves its tuple and the rest queued; a refused item
  // size consumes them all, as it would one at a time.
  return st.IsRetryable() ? written : n;
}

}  // namespace flower::flow
