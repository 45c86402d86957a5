#ifndef FLOWER_SIM_SIMULATION_H_
#define FLOWER_SIM_SIMULATION_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"
#include "obs/telemetry.h"

namespace flower::sim {

/// Discrete-event simulation driver.
///
/// All simulated cloud services (Kinesis, Storm, DynamoDB, CloudWatch)
/// and the Flower control loops run as events on one `Simulation`.
/// Events scheduled for the same instant fire in scheduling order
/// (FIFO), which makes runs deterministic.
///
/// The calendar is a bucketed timer wheel (4096 buckets of 1/64 s):
/// events within the 64 s horizon land in their bucket in O(1); a
/// bucket is sorted by (time, seq) once, when the cursor reaches it.
/// Only occupied buckets hold storage (a vector from a shared pool),
/// and an occupancy bitmap lets the cursor jump over empty buckets in
/// one step, so both memory and the walk scale with the buckets that
/// hold events rather than with the wheel's capacity. Far-future events
/// wait in an overflow heap and migrate into the wheel as the cursor
/// advances. Execution order is byte-identical to the binary-heap
/// calendar this replaced (preserved as RefCalendar and pinned by the
/// `simcore` calendar property test): strict (time, seq) order, FIFO
/// within an instant.
///
/// Usage:
///   Simulation sim;
///   sim.ScheduleAfter(5.0, [&]{ ... });
///   sim.RunUntil(3600.0);
class Simulation {
 public:
  using Callback = std::function<void()>;

  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Schedules `cb` at absolute simulated time `at`. Scheduling in the
  /// past or at a non-finite time is an error.
  Status ScheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` seconds (finite, delay >= 0).
  Status ScheduleAfter(SimTime delay, Callback cb) {
    if (!std::isfinite(delay)) {
      return Status::InvalidArgument("ScheduleAfter: delay is not finite");
    }
    if (delay < 0) return Status::InvalidArgument("negative delay");
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` every `period` seconds, first firing at
  /// `start` (absolute). The callback returns true to continue, false
  /// to stop the recurrence. `start` and `period` must be finite.
  ///
  /// The task's state lives in a slot table inside the simulation, so
  /// each recurrence schedules only a {this, slot} thunk — small enough
  /// for std::function's inline storage. A periodic task therefore
  /// costs no allocation per firing, and its callback is destroyed
  /// (captures released) as soon as it declines to recur.
  Status SchedulePeriodic(SimTime start, SimTime period,
                          std::function<bool()> cb);

  /// Runs every event with time <= `end` (inclusive boundary), in time
  /// order, then advances the clock so Now() == end even when the queue
  /// drained early. Boundary contract, pinned by simulation_test:
  ///  - An event scheduled exactly at `end` — including one scheduled
  ///    at `end` by a callback running inside this call — fires in this
  ///    call, and exactly once; a subsequent RunUntil can never re-run
  ///    or drop it.
  ///  - A periodic event whose firing lands exactly on `end` fires
  ///    there once and resumes from `end + period` on the next call.
  ///  - `end < Now()` (or a NaN `end`) runs nothing and leaves the
  ///    clock unchanged.
  void RunUntil(SimTime end);

  /// Runs a single event; returns false if the queue is empty.
  bool Step();

  /// Instruments the driver: per-event wall-clock execution time lands
  /// in the `sim.event_exec_us` histogram and executed events in the
  /// `sim.events_executed` counter of `telemetry`'s registry. Pass
  /// nullptr to detach. Not owned; must outlive the simulation or be
  /// detached first.
  void SetTelemetry(obs::Telemetry* telemetry);

  size_t pending_events() const {
    return (active_.size() - active_pos_) + wheel_count_ + overflow_.size();
  }
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
  struct PeriodicTask {
    SimTime period = 0.0;
    std::function<bool()> cb;
  };

  // Wheel geometry: 64 ticks per simulated second across 4096 buckets
  // gives a 64 s in-wheel horizon; everything beyond waits in the
  // overflow heap. The wheel only buckets events — times are stored and
  // compared as exact doubles, so tick quantization never alters order.
  static constexpr double kTicksPerSec = 64.0;
  static constexpr size_t kWheelSize = 4096;  // Power of two.
  static constexpr size_t kWheelMask = kWheelSize - 1;
  static constexpr size_t kWheelWords = kWheelSize / 64;
  static constexpr uint16_t kNoSlot = 0xFFFF;  // > any pool index.
  static constexpr int64_t kMaxTick =
      std::numeric_limits<int64_t>::max() / 2;

  /// `t` must be finite: the schedule calls reject NaN and infinities.
  static int64_t TickOf(SimTime t) {
    double x = t * kTicksPerSec;
    if (x <= 0.0) return 0;
    if (x >= static_cast<double>(kMaxTick)) return kMaxTick;
    return static_cast<int64_t>(x);  // trunc == floor for x >= 0.
  }
  static bool EventBefore(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Returns the next runnable event without executing it, jumping the
  /// cursor over empty buckets but never past `limit_tick`. Returns
  /// nullptr when no event exists at tick <= limit_tick (the cursor is
  /// then parked at limit_tick). The returned pointer is valid only
  /// until the next schedule or execute call.
  Event* PeekNextUpTo(int64_t limit_tick);
  /// Executes active_[active_pos_] (which PeekNextUpTo just returned).
  void ExecuteActiveFront();
  /// Appends `ev` to the wheel bucket of `tick`, taking a pooled vector
  /// and marking the bucket occupied on its first event.
  void PushToBucket(int64_t tick, Event&& ev);
  /// The tick of the first occupied bucket after the cursor's, found by
  /// a wrapping scan of the occupancy bitmap. Requires a non-empty wheel
  /// and an empty cursor bucket.
  int64_t NextOccupiedTick() const;
  /// Migrates overflow events that entered the wheel horizon.
  void PullOverflow();
  /// Fires periodic task `id` and reschedules it if it continues.
  void RunPeriodic(size_t id);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  obs::Histogram* exec_time_us_ = nullptr;
  obs::Counter* events_counter_ = nullptr;

  /// All ticks < cursor_tick_ are fully executed. The bucket for
  /// cursor_tick_ itself is either still in the wheel (not yet
  /// activated) or sorted into active_.
  int64_t cursor_tick_ = 0;
  /// Bucket storage. Invariants: bit b of occupied_ is set <=> slot_[b]
  /// names a pool_ vector <=> bucket b holds events not yet activated;
  /// the active tick's bucket is never marked (same-tick schedules go to
  /// active_, and overflow events lie >= kWheelSize ticks ahead). Free
  /// pool vectors are cleared but keep their capacity, so buffers only
  /// grow and a warmed-up wheel schedules without allocating.
  std::array<uint16_t, kWheelSize> slot_;
  std::array<uint64_t, kWheelWords> occupied_{};
  std::vector<std::vector<Event>> pool_;
  std::vector<uint16_t> free_slots_;  // LIFO: the warmest buffer first.
  size_t wheel_count_ = 0;            // Events in wheel buckets.
  /// The activated (sorted) bucket for cursor_tick_; events before
  /// active_pos_ have executed. In-callback schedules landing on the
  /// active tick insert sorted at a position >= active_pos_.
  std::vector<Event> active_;
  size_t active_pos_ = 0;
  bool active_valid_ = false;
  /// Events beyond the wheel horizon, ordered by (time, seq).
  std::priority_queue<Event, std::vector<Event>, Later> overflow_;

  std::vector<PeriodicTask> periodic_tasks_;
  std::vector<size_t> periodic_free_;
};

}  // namespace flower::sim

#endif  // FLOWER_SIM_SIMULATION_H_
