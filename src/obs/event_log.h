#ifndef FLOWER_OBS_EVENT_LOG_H_
#define FLOWER_OBS_EVENT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"

namespace flower::obs {

/// What a control step ultimately did.
enum class StepOutcome : uint8_t {
  kActuated = 0,         ///< Controller ran and the actuation succeeded.
  kSensorMiss = 1,       ///< No usable measurement; step skipped.
  kControllerError = 2,  ///< Controller Update returned an error.
  kBreakerOpen = 3,      ///< Circuit breaker open; actuator untouched.
  kActuationFailed = 4,  ///< Initial actuation attempt failed (retries
                         ///< may still land later; see retry counters).
};

const char* StepOutcomeToString(StepOutcome outcome);

/// Bitmask of fault-injector interference observed during one step
/// (bit i == 1 << static_cast<int>(sim::FaultKind)). Kept as a plain
/// uint8_t so obs does not depend on sim.
using FaultMask = uint8_t;

/// Bitmask of flow-health state stamped on a step by the health layer
/// (bits are obs::health::kHealthFlowBreach / kHealthLayerBreach /
/// kHealthAnomaly). Plain uint8_t for the same reason as FaultMask:
/// control code carries it without depending on obs/health.
using HealthMask = uint8_t;

/// Index of a loop in its DecisionLog's LoopTable.
using LoopId = uint16_t;

/// A control loop's constant identity, registered once when it attaches.
struct LoopInfo {
  std::string name;   ///< Loop name ("analytics", ...).
  std::string layer;  ///< Layer name.
  std::string law;    ///< Controller family ("adaptive-gain", ...).
};

/// The loops a DecisionLog's records name, indexed by LoopId.
class LoopTable {
 public:
  /// Appends `info`; ResourceExhausted once every LoopId is taken.
  Result<LoopId> Register(LoopInfo info);

  const LoopInfo& operator[](LoopId id) const { return loops_[id]; }
  size_t size() const { return loops_.size(); }

 private:
  std::vector<LoopInfo> loops_;
};

/// One fixed-size record per control step — the row the paper's §4
/// demo charts are drawn from: what the loop sensed, what the control
/// law computed (including the Eq. 7 adapted gain), what was actually
/// applied, and everything that interfered.
struct ControlDecisionRecord {
  SimTime time = 0.0;
  double sensed_y = 0.0;   ///< y_k fed to the controller.
  double reference = 0.0;  ///< y_r.
  double error = 0.0;      ///< y_k − y_r.
  /// Adapted gain l_k after the step (Eq. 7); NaN for control laws
  /// without an explicit gain (rule-based, target-tracking) and on
  /// every step where the control law did not run.
  double gain = 0.0;
  /// Raw control-law output u_{k+1} before quantization and clamping;
  /// NaN when the control law did not run.
  double raw_u = 0.0;
  /// Quantized actuation after limits and the share upper bound.
  double clamped_u = 0.0;
  /// Causal decide-span id (obs::SpanId) for this step, resolvable via
  /// SpanIndex::EffectOf to the sensed-metric parents and actuation
  /// children. 0 when span recording is disabled. Kept as a plain
  /// uint64_t so the event log does not depend on obs/span.
  uint64_t span_id = 0;
  LoopId loop = 0;            ///< The step's loop in the LoopTable.
  bool stale_sensor = false;  ///< Step ran on a held last-good value.
  StepOutcome outcome = StepOutcome::kActuated;
  FaultMask fault_mask = 0;  ///< Injected-fault interference this step.
  /// Flow-health state (SLO breach / anomaly bits) at step time, 0 when
  /// no health annotator is installed on the manager.
  HealthMask health_mask = 0;
};
static_assert(std::is_trivially_copyable_v<ControlDecisionRecord>);
static_assert(sizeof(ControlDecisionRecord) <= 72);

/// Writes `record`'s canonical digest line ("t=... loop=<loop> y=...
/// raw_u=... u=... out=...", no newline) into `buf` and returns its
/// length. The fleet's ControlDigest and the flight recorder's hash
/// chain are both built from exactly this text.
inline constexpr size_t kDigestLineCapacity = 160;
size_t FormatDigestLine(const ControlDecisionRecord& record,
                        const std::string& loop,
                        char (&buf)[kDigestLineCapacity]);

/// Bounded ring buffer of decision records plus their loop table.
/// Appending past capacity overwrites the oldest record; readers walk
/// the ring in place with size() and at().
class DecisionLog {
 public:
  explicit DecisionLog(size_t capacity = 65536);

  LoopTable& loops() { return loops_; }
  const LoopTable& loops() const { return loops_; }
  const LoopInfo& loop(const ControlDecisionRecord& record) const {
    return loops_[record.loop];
  }

  void Append(const ControlDecisionRecord& record);

  size_t capacity() const { return capacity_; }
  /// Records currently retained (<= capacity).
  size_t size() const { return ring_.size(); }
  /// Records ever appended (including overwritten ones).
  uint64_t total_appended() const { return total_; }

  /// The i-th retained record, oldest first (i < size()).
  const ControlDecisionRecord& at(size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< Next write position once the ring is full.
  uint64_t total_ = 0;
  std::vector<ControlDecisionRecord> ring_;
  LoopTable loops_;
};

}  // namespace flower::obs

#endif  // FLOWER_OBS_EVENT_LOG_H_
