#include "obs/span.h"

#include <algorithm>

#include "common/logging.h"

namespace flower::obs {

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSense:
      return "sense";
    case SpanKind::kDecide:
      return "decide";
    case SpanKind::kPlan:
      return "plan";
    case SpanKind::kActuate:
      return "actuate";
    case SpanKind::kEffect:
      return "effect";
    case SpanKind::kGeneration:
      return "generation";
    case SpanKind::kArbitrate:
      return "arbitrate";
    case SpanKind::kBreaker:
      return "breaker";
    case SpanKind::kFault:
      return "fault";
  }
  return "unknown";
}

SpanCollector::SpanCollector(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SpanCollector::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_ && ring_.size() != capacity_) ring_.resize(capacity_);
}

Status SpanCollector::set_id_offset(SpanId offset) {
  if (total_started() != 0) {
    return Status::FailedPrecondition(
        "SpanCollector: id offset must be set before any span is recorded");
  }
  id_offset_ = offset;
  next_id_.store(offset + 1, std::memory_order_relaxed);
  return Status::OK();
}

SpanId SpanCollector::Begin(SpanKind kind, std::string_view label,
                            SimTime start, int pid, int tid, SpanId parent,
                            SpanId follows) {
  if (!enabled_) return 0;
  SpanId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (id > id_offset_ + kIdStride) {
    // Namespace exhausted: minting this id would collide with the next
    // sibling collector's (offset + kIdStride, ...] range. Drop the
    // span, count it, and hold next_id_ at the boundary so the counter
    // cannot creep into foreign territory however often this fires.
    next_id_.store(id_offset_ + kIdStride + 1, std::memory_order_relaxed);
    if (id_overflows_.fetch_add(1, std::memory_order_relaxed) == 0) {
      FLOWER_LOG(Warning)
          << "SpanCollector: id namespace exhausted (offset=" << id_offset_
          << ", stride=" << kIdStride
          << "); dropping further spans for this collector";
    }
    return 0;
  }
  SpanRecord* r = Slot(id);
  r->id = id;
  r->parent = parent;
  r->follows = follows;
  r->kind = kind;
  r->outcome = 0;
  r->pid = pid;
  r->tid = tid;
  r->start = start;
  r->end = start;
  r->value = 0.0;
  r->label.assign(label.data(), label.size());
  r->open = true;
  return id;
}

void SpanCollector::End(SpanId id, SimTime end, double value,
                        uint8_t outcome) {
  if (id == 0 || ring_.empty()) return;
  SpanRecord* r = Slot(id);
  if (r->id != id || !r->open) return;  // Evicted (or double-ended).
  r->end = end;
  r->value = value;
  r->outcome = outcome;
  r->open = false;
}

SpanId SpanCollector::Emit(SpanKind kind, std::string_view label,
                           SimTime start, double dur_sec, int pid, int tid,
                           SpanId parent, SpanId follows, double value,
                           uint8_t outcome) {
  SpanId id = Begin(kind, label, start, pid, tid, parent, follows);
  End(id, start + dur_sec, value, outcome);
  return id;
}

const SpanRecord* SpanCollector::Find(SpanId id) const {
  if (id <= id_offset_ || id >= end_id() || ring_.empty()) return nullptr;
  const SpanRecord* r = &ring_[(id - id_offset_ - 1) % capacity_];
  return r->id == id ? r : nullptr;
}

int SpanCollector::RegisterScope(std::string name) {
  int pid = next_pid_++;
  process_names_[pid] = std::move(name);
  return pid;
}

void SpanCollector::SetTrackName(int pid, int tid, std::string name) {
  track_names_[{pid, tid}] = std::move(name);
}

SpanId SpanCollector::first_retained() const {
  uint64_t started = total_started();
  if (started == 0) return 0;
  return started <= capacity_ ? id_offset_ + 1 : end_id() - capacity_;
}

size_t SpanCollector::size() const {
  uint64_t started = total_started();
  return started <= capacity_ ? static_cast<size_t>(started) : capacity_;
}

uint64_t SpanCollector::evicted() const {
  uint64_t started = total_started();
  return started <= capacity_ ? 0 : started - capacity_;
}

SpanIndex::SpanIndex(const SpanCollector& spans) : spans_(spans) {
  children_.reserve(spans.size());
  followers_.reserve(spans.size());
  for (SpanId id = spans.first_retained(); id != 0 && id < spans.end_id();
       ++id) {
    const SpanRecord* r = spans.Find(id);
    if (r == nullptr) continue;
    if (r->parent != 0) children_.emplace_back(r->parent, id);
    if (r->follows != 0) followers_.emplace_back(r->follows, id);
  }
  std::sort(children_.begin(), children_.end());
  std::sort(followers_.begin(), followers_.end());
}

namespace {

std::vector<const SpanRecord*> EdgeTargets(
    const std::vector<std::pair<SpanId, SpanId>>& edges, SpanId from,
    const SpanCollector& spans) {
  std::vector<const SpanRecord*> out;
  auto lo = std::lower_bound(edges.begin(), edges.end(),
                             std::make_pair(from, SpanId{0}));
  for (auto it = lo; it != edges.end() && it->first == from; ++it) {
    if (const SpanRecord* r = spans.Find(it->second)) out.push_back(r);
  }
  return out;
}

}  // namespace

std::vector<const SpanRecord*> SpanIndex::ChildrenOf(SpanId id) const {
  return EdgeTargets(children_, id, spans_);
}

std::vector<const SpanRecord*> SpanIndex::FollowersOf(SpanId id) const {
  return EdgeTargets(followers_, id, spans_);
}

Result<SpanIndex::CausalChain> SpanIndex::EffectOf(SpanId decision_id) const {
  const SpanRecord* d = Get(decision_id);
  if (d == nullptr) {
    return Status::NotFound("SpanIndex::EffectOf: span not retained");
  }
  if (d->kind != SpanKind::kDecide) {
    return Status::InvalidArgument(
        "SpanIndex::EffectOf: span is not a decision span");
  }
  CausalChain chain;
  chain.decision = d;
  // Upstream: walk the parent chain collecting sensed-metric spans.
  for (const SpanRecord* p = Get(d->parent); p != nullptr;
       p = Get(p->parent)) {
    if (p->kind == SpanKind::kSense) chain.senses.push_back(p);
  }
  // Sideways: the plan run whose bounds shaped this decision.
  for (const SpanRecord* f = Get(d->follows); f != nullptr;
       f = Get(f->follows)) {
    if (f->kind == SpanKind::kPlan) {
      chain.plans.push_back(f);
      break;  // Older plans were superseded; one hop is the cause.
    }
  }
  // Downstream: actuation attempts are children of the decision (retry
  // attempts chain to each other with follows-from, still parented on
  // the decision), and each observed effect is a child of the actuation
  // that caused it.
  for (const SpanRecord* a : ChildrenOf(decision_id)) {
    if (a->kind != SpanKind::kActuate) continue;
    chain.actuations.push_back(a);
    for (const SpanRecord* e : ChildrenOf(a->id)) {
      if (e->kind == SpanKind::kEffect) chain.effects.push_back(e);
    }
  }
  return chain;
}

}  // namespace flower::obs
