#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace flower::sim {

Simulation::Simulation() { slot_.fill(kNoSlot); }

Status Simulation::ScheduleAt(SimTime at, Callback cb) {
  if (!std::isfinite(at)) {
    return Status::InvalidArgument("ScheduleAt: time is not finite");
  }
  if (at < now_) {
    return Status::InvalidArgument("ScheduleAt: time is in the past");
  }
  const int64_t tick = TickOf(at);
  Event ev{at, next_seq_++, std::move(cb)};
  if (active_valid_ && tick == cursor_tick_) {
    // Scheduling onto the tick currently being executed: keep the
    // active bucket sorted. `at >= now_` and the fresh seq guarantee
    // the slot is at or after active_pos_, so already-executed entries
    // are never disturbed.
    auto it = std::lower_bound(active_.begin() +
                                   static_cast<std::ptrdiff_t>(active_pos_),
                               active_.end(), ev, EventBefore);
    active_.insert(it, std::move(ev));
  } else if (tick < cursor_tick_ + static_cast<int64_t>(kWheelSize)) {
    PushToBucket(tick, std::move(ev));
  } else {
    overflow_.push(std::move(ev));
  }
  return Status::OK();
}

Status Simulation::SchedulePeriodic(SimTime start, SimTime period,
                                    std::function<bool()> cb) {
  if (!std::isfinite(start) || !std::isfinite(period)) {
    return Status::InvalidArgument(
        "SchedulePeriodic: start and period must be finite");
  }
  if (period <= 0) {
    return Status::InvalidArgument("SchedulePeriodic: period must be > 0");
  }
  if (start < now_) {
    return Status::InvalidArgument("SchedulePeriodic: start is in the past");
  }
  size_t id;
  if (!periodic_free_.empty()) {
    id = periodic_free_.back();
    periodic_free_.pop_back();
    periodic_tasks_[id] = PeriodicTask{period, std::move(cb)};
  } else {
    id = periodic_tasks_.size();
    periodic_tasks_.push_back(PeriodicTask{period, std::move(cb)});
  }
  // {this, id} fits std::function's inline storage: no per-recurrence
  // allocation.
  return ScheduleAt(start, [this, id] { RunPeriodic(id); });
}

void Simulation::RunPeriodic(size_t id) {
  // Run the callback from a local: it may itself schedule periodic
  // tasks, growing (reallocating) periodic_tasks_ mid-call.
  std::function<bool()> cb = std::move(periodic_tasks_[id].cb);
  const SimTime period = periodic_tasks_[id].period;
  if (cb()) {
    periodic_tasks_[id].cb = std::move(cb);
    // Ignore failure: re-scheduling "now + period" cannot be in the
    // past.
    (void)ScheduleAfter(period, [this, id] { RunPeriodic(id); });
  } else {
    // Stopped recurring: destroy the callback now so its captures are
    // released (pinned by PeriodicCallbackIsFreedWhenItStopsRecurring),
    // then recycle the slot.
    periodic_free_.push_back(id);
  }
}

void Simulation::PushToBucket(int64_t tick, Event&& ev) {
  const size_t bucket = static_cast<size_t>(tick) & kWheelMask;
  uint16_t& slot = slot_[bucket];
  if (slot == kNoSlot) {
    if (free_slots_.empty()) {
      slot = static_cast<uint16_t>(pool_.size());
      pool_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    occupied_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
  }
  pool_[slot].push_back(std::move(ev));
  ++wheel_count_;
}

int64_t Simulation::NextOccupiedTick() const {
  // Start at the cursor's own (empty) bucket and wrap once around the
  // wheel: 65 word reads cover the bits below the cursor in its word.
  const size_t from = static_cast<size_t>(cursor_tick_) & kWheelMask;
  size_t word = from >> 6;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (from & 63));
  for (size_t i = 0; i <= kWheelWords; ++i) {
    if (bits != 0) {
      const size_t bucket =
          (word << 6) | static_cast<size_t>(std::countr_zero(bits));
      return cursor_tick_ + static_cast<int64_t>((bucket - from) & kWheelMask);
    }
    word = (word + 1) % kWheelWords;
    bits = occupied_[word];
  }
  return kMaxTick;  // Unreachable while wheel_count_ > 0.
}

void Simulation::PullOverflow() {
  const int64_t horizon = cursor_tick_ + static_cast<int64_t>(kWheelSize);
  while (!overflow_.empty() && TickOf(overflow_.top().time) < horizon) {
    // priority_queue exposes only const top(); moving out before pop is
    // safe because the comparator reads time/seq, never the callback.
    Event& top = const_cast<Event&>(overflow_.top());
    const int64_t tick = TickOf(top.time);
    PushToBucket(tick, std::move(top));
    overflow_.pop();
  }
}

Simulation::Event* Simulation::PeekNextUpTo(int64_t limit_tick) {
  for (;;) {
    if (active_valid_) {
      if (active_pos_ < active_.size()) return &active_[active_pos_];
      // Bucket exhausted. Retire it; the cursor may then advance. New
      // events for this tick will land in its (unmarked) wheel bucket
      // and re-activate it.
      active_.clear();
      active_pos_ = 0;
      active_valid_ = false;
    }
    const size_t bucket = static_cast<size_t>(cursor_tick_) & kWheelMask;
    const uint16_t slot = slot_[bucket];
    if (slot != kNoSlot) {
      // Activate: sort once per bucket. The swap hands the empty active_
      // buffer back to the pool, so a warmed-up wheel schedules and
      // activates without allocating.
      active_.swap(pool_[slot]);
      slot_[bucket] = kNoSlot;
      occupied_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
      free_slots_.push_back(slot);
      wheel_count_ -= active_.size();
      if (!std::is_sorted(active_.begin(), active_.end(), EventBefore)) {
        std::sort(active_.begin(), active_.end(), EventBefore);
      }
      active_pos_ = 0;
      active_valid_ = true;
      continue;
    }
    // The cursor's bucket is empty: jump straight to the next occupied
    // bucket or, with an empty wheel, to the next overflow event — never
    // past the limit. The jump skips no overflow event: every one lies
    // at least kWheelSize ticks past the cursor, beyond any occupied
    // bucket.
    int64_t next_tick = limit_tick + 1;  // Nothing pending: park.
    if (wheel_count_ > 0) {
      next_tick = NextOccupiedTick();
    } else if (!overflow_.empty()) {
      next_tick = TickOf(overflow_.top().time);
    }
    if (next_tick > limit_tick) {
      if (cursor_tick_ < limit_tick) {
        // Parking moves the horizon too: pull what entered it, or a
        // later jump could pass it.
        cursor_tick_ = limit_tick;
        PullOverflow();
      }
      return nullptr;
    }
    cursor_tick_ = next_tick;
    PullOverflow();
  }
}

void Simulation::ExecuteActiveFront() {
  Event& ev = active_[active_pos_];
  now_ = ev.time;
  // Move the callback out: it may schedule into this same tick, which
  // inserts into (and can reallocate) active_ under our feet.
  Callback cb = std::move(ev.cb);
  ++active_pos_;
  ++events_executed_;
  cb();
}

bool Simulation::Step() {
  if (pending_events() == 0) return false;
  Event* ev = PeekNextUpTo(kMaxTick);
  // pending_events() > 0 guarantees an event exists below kMaxTick.
  (void)ev;
  ExecuteActiveFront();
  return true;
}

void Simulation::RunUntil(SimTime end) {
  // Past horizon (or NaN): nothing to run, clock keeps.
  if (!(end >= now_)) return;
  const int64_t end_tick = TickOf(end);
  for (;;) {
    Event* ev = PeekNextUpTo(end_tick);
    if (ev == nullptr || ev->time > end) break;
    ExecuteActiveFront();
  }
  if (now_ < end) now_ = end;
}

}  // namespace flower::sim
