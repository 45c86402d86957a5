#ifndef FLOWER_TESTS_SIM_REF_CALENDAR_H_
#define FLOWER_TESTS_SIM_REF_CALENDAR_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"

namespace flower::sim {

/// The pre-timer-wheel event calendar: a binary heap ordered by
/// (time, seq), exactly as `Simulation` was implemented before the
/// bucketed wheel replaced it.
///
/// Kept in tests/ as the semantics oracle: the calendar property test
/// drives the same schedules through both engines and asserts
/// identical execution order. Not used by any simulated service.
///
/// The API is the schedule/run subset of `Simulation` (no telemetry).
class RefCalendar {
 public:
  using Callback = std::function<void()>;

  RefCalendar() = default;
  RefCalendar(const RefCalendar&) = delete;
  RefCalendar& operator=(const RefCalendar&) = delete;

  SimTime Now() const { return now_; }

  Status ScheduleAt(SimTime at, Callback cb);

  Status ScheduleAfter(SimTime delay, Callback cb) {
    if (!std::isfinite(delay)) {
      return Status::InvalidArgument("ScheduleAfter: delay is not finite");
    }
    if (delay < 0) return Status::InvalidArgument("negative delay");
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  Status SchedulePeriodic(SimTime start, SimTime period,
                          std::function<bool()> cb);

  /// Same inclusive-boundary contract as Simulation::RunUntil.
  void RunUntil(SimTime end);

  /// Runs a single event; returns false if the queue is empty.
  bool Step();

  size_t pending_events() const { return queue_.size(); }
  uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace flower::sim

#endif  // FLOWER_TESTS_SIM_REF_CALENDAR_H_
