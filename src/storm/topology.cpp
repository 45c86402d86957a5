#include "storm/topology.h"

#include "common/logging.h"

namespace flower::storm {

Status BoltLogic::Execute(const Tuple& input, SimTime now,
                          const std::function<void(Tuple)>& emit) {
  Status st;
  execute_out_.clear();
  in_default_execute_ = true;
  ExecuteBatch(&input, 1, now, &execute_out_, &st);
  in_default_execute_ = false;
  for (size_t i = 0; i < execute_out_.size(); ++i) emit(execute_out_[i]);
  return st;
}

size_t BoltLogic::ExecuteBatch(const Tuple* in, size_t n, SimTime now,
                               VecDeque<Tuple>* out, Status* status) {
  FLOWER_CHECK(!in_default_execute_)
      << "a bolt must override Execute or ExecuteBatch";
  // One emit thunk per batch; {out} fits std::function's inline storage.
  const std::function<void(Tuple)> emit = [out](Tuple t) {
    out->push_back(t);
  };
  for (size_t i = 0; i < n; ++i) {
    Status st = Execute(in[i], now, emit);
    if (st.ok()) continue;
    if (status->ok()) *status = st;
    if (st.IsRetryable()) return i;
  }
  return n;
}

size_t StatelessBolt::ExecuteBatch(const Tuple* in, size_t n,
                                   SimTime /*now*/, VecDeque<Tuple>* out,
                                   Status* /*status*/) {
  if (selectivity_ == 1.0) {
    // Each input adds exactly 1.0 to `pending_emits_` and emits once,
    // which returns it to exactly 0.0: the batch goes out whole.
    out->AppendRange(in, n);
    return n;
  }
  for (size_t i = 0; i < n; ++i) {
    pending_emits_ += selectivity_;
    while (pending_emits_ >= 1.0) {
      out->push_back(in[i]);
      pending_emits_ -= 1.0;
    }
  }
  return n;
}

Status Topology::AddSpout(std::string name, SpoutFn fn,
                          double cpu_cost_per_tuple) {
  if (!fn) return Status::InvalidArgument("AddSpout: null pull function");
  if (FindSpout(name) >= 0 || FindBolt(name) >= 0) {
    return Status::AlreadyExists("AddSpout: duplicate component name '" +
                                 name + "'");
  }
  if (cpu_cost_per_tuple < 0.0) {
    return Status::InvalidArgument("AddSpout: negative cpu cost");
  }
  spouts_.push_back(
      {std::move(name), std::move(fn), cpu_cost_per_tuple, {}});
  return Status::OK();
}

Status Topology::SetSpout(std::string name, SpoutFn fn,
                          double cpu_cost_per_tuple) {
  if (!spouts_.empty()) {
    return Status::AlreadyExists("Topology '" + name_ +
                                 "' already has a spout");
  }
  return AddSpout(std::move(name), std::move(fn), cpu_cost_per_tuple);
}

int Topology::FindBolt(const std::string& name) const {
  for (size_t i = 0; i < bolts_.size(); ++i) {
    if (bolts_[i].spec.name == name) return static_cast<int>(i);
  }
  return -1;
}

int Topology::FindSpout(const std::string& name) const {
  for (size_t i = 0; i < spouts_.size(); ++i) {
    if (spouts_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Topology::AddBolt(BoltSpec spec,
                         const std::vector<std::string>& parents) {
  if (submitted_) {
    return Status::FailedPrecondition("AddBolt: topology '" + name_ +
                                      "' is already submitted");
  }
  if (!spec.logic) {
    return Status::InvalidArgument("AddBolt: bolt '" + spec.name +
                                   "' has no logic");
  }
  if (spec.cpu_cost_per_tuple < 0.0) {
    return Status::InvalidArgument("AddBolt: negative cpu cost");
  }
  if (FindBolt(spec.name) >= 0 || FindSpout(spec.name) >= 0) {
    return Status::AlreadyExists("AddBolt: duplicate component name '" +
                                 spec.name + "'");
  }
  if (parents.empty()) {
    return Status::InvalidArgument("AddBolt: bolt '" + spec.name +
                                   "' needs at least one parent");
  }
  BoltNode node;
  node.spec = std::move(spec);
  for (const std::string& parent : parents) {
    if (parent.empty()) {
      if (spouts_.size() != 1) {
        return Status::InvalidArgument(
            "AddBolt: \"\" parent requires exactly one spout");
      }
      node.parents.push_back(-1);  // -1 - 0.
      continue;
    }
    int s = FindSpout(parent);
    if (s >= 0) {
      node.parents.push_back(-1 - s);
      continue;
    }
    int b = FindBolt(parent);
    if (b >= 0) {
      node.parents.push_back(b);
      continue;
    }
    return Status::NotFound("AddBolt: unknown parent '" + parent + "'");
  }
  // Maintain the forward adjacency the scheduler tick consumes
  // (spout -> subscribers, bolt -> children). Deduplicated: a parent
  // listed twice still delivers each tuple once, matching the
  // HasSpoutParent/HasBoltParent semantics the per-tick scan had.
  const size_t new_idx = bolts_.size();
  for (size_t i = 0; i < node.parents.size(); ++i) {
    int p = node.parents[i];
    bool seen = false;
    for (size_t j = 0; j < i; ++j) seen = seen || node.parents[j] == p;
    if (seen) continue;
    if (p < 0) {
      spouts_[static_cast<size_t>(-1 - p)].subscribers.push_back(new_idx);
    } else {
      bolts_[static_cast<size_t>(p)].children.push_back(new_idx);
    }
  }
  bolts_.push_back(std::move(node));
  return Status::OK();
}

Status Topology::AddBolt(BoltSpec spec, const std::string& parent) {
  return AddBolt(std::move(spec), std::vector<std::string>{parent});
}

size_t Topology::PendingTuples() const {
  size_t total = 0;
  for (const BoltNode& b : bolts_) total += b.queue.size();
  return total;
}

std::vector<std::pair<std::string, size_t>> Topology::QueueLengths() const {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(bolts_.size());
  for (const BoltNode& b : bolts_) {
    out.emplace_back(b.spec.name, b.queue.size());
  }
  return out;
}

}  // namespace flower::storm
