#include "sim/ref_calendar.h"

#include <memory>
#include <utility>

namespace flower::sim {

Status RefCalendar::ScheduleAt(SimTime at, Callback cb) {
  if (!std::isfinite(at)) {
    return Status::InvalidArgument("ScheduleAt: time is not finite");
  }
  if (at < now_) {
    return Status::InvalidArgument("ScheduleAt: time is in the past");
  }
  queue_.push(Event{at, next_seq_++, std::move(cb)});
  return Status::OK();
}

Status RefCalendar::SchedulePeriodic(SimTime start, SimTime period,
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
  // Self-rescheduling closure chain, weakly self-captured so that a
  // callback declining to recur frees the whole chain (see the
  // original Simulation::SchedulePeriodic this class preserves).
  auto recur = std::make_shared<std::function<void()>>();
  auto self = this;
  *recur = [self, period, cb = std::move(cb),
            weak = std::weak_ptr<std::function<void()>>(recur)]() {
    if (cb()) {
      if (auto strong = weak.lock()) {
        (void)self->ScheduleAfter(period, [strong] { (*strong)(); });
      }
    }
  };
  return ScheduleAt(start, [recur] { (*recur)(); });
}

bool RefCalendar::Step() {
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.time;
  ++events_executed_;
  ev.cb();
  return true;
}

void RefCalendar::RunUntil(SimTime end) {
  if (!(end >= now_)) return;  // Past horizon or NaN.
  while (!queue_.empty() && queue_.top().time <= end) {
    Step();
  }
  if (now_ < end) now_ = end;
}

}  // namespace flower::sim
