#include "flow/bolts.h"

namespace flower::flow {

Status WindowCountBolt::Execute(const storm::Tuple& input, SimTime now,
                                const std::function<void(storm::Tuple)>& emit) {
  counter_.Add(input.entity_id, now, input.value);
  // Between slide boundaries AdvanceTo has nothing to do: skip building
  // its emit callback for the tuples that cross no boundary.
  if (!counter_.BoundaryDue(now)) return Status::OK();
  exec_input_ = &input;
  exec_emit_ = &emit;
  counter_.AdvanceTo(now, [this](int64_t entity, double count, SimTime end) {
    storm::Tuple out;
    out.origin_time = exec_input_->origin_time;
    out.entity_id = entity;
    out.value = count;
    out.size_bytes = 128;
    (void)end;
    (*exec_emit_)(out);
    ++emitted_;
  });
  exec_input_ = nullptr;
  exec_emit_ = nullptr;
  return Status::OK();
}

Status PersistBolt::Execute(const storm::Tuple& input, SimTime /*now*/,
                            const std::function<void(storm::Tuple)>& emit) {
  (void)emit;  // Terminal bolt: nothing downstream.
  Status st = table_->PutItem(input.entity_id, input.value, item_bytes_);
  if (st.ok()) ++persisted_;
  return st;
}

}  // namespace flower::flow
