#include "flow/bolts.h"

namespace flower::flow {

size_t WindowCountBolt::ExecuteBatch(const storm::Tuple* in, size_t n,
                                     SimTime now,
                                     VecDeque<storm::Tuple>* out,
                                     Status* /*status*/) {
  if (n == 0) return 0;
  // Every input of a batch arrives at `now`, so only the first one can
  // find a slide boundary due: it is added, the boundary's aggregates
  // are emitted stamped with its origin time, then the rest are added.
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
  for (size_t i = 1; i < n; ++i) {
    counter_.Add(in[i].entity_id, now, in[i].value);
  }
  return n;
}

size_t PersistBolt::ExecuteBatch(const storm::Tuple* in, size_t n,
                                 SimTime /*now*/,
                                 VecDeque<storm::Tuple>* /*out*/,
                                 Status* status) {
  for (size_t i = 0; i < n; ++i) {
    Status st = table_->PutItem(in[i].entity_id, in[i].value, item_bytes_);
    if (st.ok()) {
      ++persisted_;
      continue;
    }
    if (status->ok()) *status = st;
    if (st.IsRetryable()) return i;
  }
  return n;
}

}  // namespace flower::flow
