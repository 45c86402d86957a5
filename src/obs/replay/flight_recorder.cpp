#include "obs/replay/flight_recorder.h"

#include <algorithm>
#include <utility>

namespace flower::obs::replay {

uint64_t FnvMix(uint64_t seed, const void* data, size_t len) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = seed;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

FlightRecorder::FlightRecorder(RecorderConfig config) : config_(config) {
  if (config_.decision_capacity == 0) config_.decision_capacity = 1;
  if (config_.grant_capacity == 0) config_.grant_capacity = 1;
  if (config_.replan_capacity == 0) config_.replan_capacity = 1;
  if (config_.checkpoint_capacity == 0) config_.checkpoint_capacity = 1;
  if (config_.checkpoint_every == 0) config_.checkpoint_every = 1;
  decisions_.resize(config_.decision_capacity);
  grants_.resize(config_.grant_capacity);
  replans_.resize(config_.replan_capacity);
  checkpoints_.resize(config_.checkpoint_capacity);
}

void FlightRecorder::SetInputs(
    std::string tenant_id, size_t tenant_index, uint64_t seed,
    std::vector<std::pair<std::string, std::string>> spec,
    std::vector<FaultSpec> faults) {
  tenant_id_ = std::move(tenant_id);
  tenant_index_ = tenant_index;
  seed_ = seed;
  spec_ = std::move(spec);
  faults_ = std::move(faults);
}

const std::string& FlightRecorder::LoopName(LoopId id) const {
  static const std::string kUnknown;
  return id < num_loops() ? (*loops_)[id].name : kUnknown;
}

void FlightRecorder::RecordDecision(const ControlDecisionRecord& record) {
  char line[kDigestLineCapacity];
  size_t len = FormatDigestLine(record, LoopName(record.loop), line);
  uint64_t line_hash = FnvMix(kFnvOffsetBasis, line, len);
  // Seeding each line's hash with the previous chain value makes the
  // chain positional: any historical mismatch poisons every later value.
  chain_ = FnvMix(chain_, line, len);

  RecordedDecision& e =
      decisions_[static_cast<size_t>(total_decisions_ % decisions_.size())];
  e.index = total_decisions_;
  e.record = record;
  e.line_hash = line_hash;
  e.chain = chain_;
  last_span_id_ = record.span_id;

  ++total_decisions_;
  if (total_decisions_ % config_.checkpoint_every == 0) {
    HashCheckpoint& c = checkpoints_[static_cast<size_t>(
        total_checkpoints_ % checkpoints_.size())];
    c.index = total_decisions_ - 1;
    c.time = record.time;
    c.chain = chain_;
    ++total_checkpoints_;
  }
}

void FlightRecorder::RecordGrant(SimTime t, double demand_usd,
                                 double grant_usd) {
  GrantEntry& g = grants_[static_cast<size_t>(total_grants_ % grants_.size())];
  g.index = total_grants_;
  g.time = t;
  g.demand_usd = demand_usd;
  g.grant_usd = grant_usd;
  ++total_grants_;
}

void FlightRecorder::RecordReplan(SimTime t, double budget_usd,
                                  const double* shares, int num_shares,
                                  bool applied) {
  ReplanEntry& r =
      replans_[static_cast<size_t>(total_replans_ % replans_.size())];
  r.index = total_replans_;
  r.time = t;
  r.budget_usd = budget_usd;
  r.num_shares = std::min(num_shares, ReplanEntry::kMaxShares);
  for (int i = 0; i < ReplanEntry::kMaxShares; ++i) {
    r.shares[i] = i < r.num_shares ? shares[i] : 0.0;
  }
  r.applied = applied;
  ++total_replans_;
}

void FlightRecorder::Trigger(SimTime t, const std::string& reason,
                             double burn_fast, double burn_slow) {
  if (trigger_.fired) return;
  trigger_.fired = true;
  trigger_.time = t;
  trigger_.reason = reason;
  trigger_.span_id = last_span_id_;
  trigger_.burn_fast = burn_fast;
  trigger_.burn_slow = burn_slow;
}

SimTime FlightRecorder::window_start() const {
  if (total_decisions_ == 0) return 0.0;
  uint64_t oldest = total_decisions_ <= decisions_.size()
                        ? 0
                        : total_decisions_ - decisions_.size();
  return decisions_[static_cast<size_t>(oldest % decisions_.size())]
      .record.time;
}

template <typename T>
std::vector<T> FlightRecorder::RingSnapshot(const std::vector<T>& ring,
                                            uint64_t total, size_t capacity) {
  std::vector<T> out;
  uint64_t first = total <= capacity ? 0 : total - capacity;
  out.reserve(static_cast<size_t>(total - first));
  for (uint64_t i = first; i < total; ++i) {
    out.push_back(ring[static_cast<size_t>(i % capacity)]);
  }
  return out;
}

std::vector<RecordedDecision> FlightRecorder::Decisions() const {
  return RingSnapshot(decisions_, total_decisions_, decisions_.size());
}

std::vector<GrantEntry> FlightRecorder::Grants() const {
  return RingSnapshot(grants_, total_grants_, grants_.size());
}

std::vector<ReplanEntry> FlightRecorder::Replans() const {
  return RingSnapshot(replans_, total_replans_, replans_.size());
}

std::vector<HashCheckpoint> FlightRecorder::Checkpoints() const {
  return RingSnapshot(checkpoints_, total_checkpoints_, checkpoints_.size());
}

}  // namespace flower::obs::replay
