#ifndef FLOWER_OBS_SPAN_H_
#define FLOWER_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"

namespace flower::obs {

/// Lanes of the exported trace: the default process (pid) plus fixed
/// thread (tid) tracks. Control loops get consecutive tids from
/// kFirstLoopTid in attach order; scopes registered via
/// SpanCollector::RegisterScope get their own pids.
constexpr int kTracePid = 1;
constexpr int kPlannerTid = 100;
constexpr int kFaultInjectorTid = 99;
constexpr int kFirstLoopTid = 1;

/// Identifier of one causal control span. Ids are assigned sequentially
/// from 1 in record order, so a run is deterministic: the same scenario
/// produces the same ids regardless of wall clock or thread count
/// (spans are only recorded from the simulation/coordinator thread).
/// 0 means "no span".
using SpanId = uint64_t;

/// Stage of the control causal chain a span belongs to. The paper's
/// sense -> decide -> plan -> actuate -> effect pipeline, plus the
/// per-generation planner sub-spans.
enum class SpanKind : uint8_t {
  kSense = 0,    ///< One sensor read; value = measured y.
  kDecide = 1,   ///< One controller step; value = clamped u.
  kPlan = 2,     ///< One NSGA-II (re)planning pass; value = front size.
  kActuate = 3,  ///< One actuation attempt; value = applied amount.
  kEffect = 4,   ///< Settling interval actuation -> next sense;
                 ///< value = the newly observed y (Eq. 7 story).
  kGeneration = 5,  ///< One planner generation (child of kPlan).
  kArbitrate = 6,   ///< One fleet budget arbitration event; value =
                    ///< total USD granted at the boundary.
  kBreaker = 7,     ///< Circuit breaker open over [trip, trip +
                    ///< cooldown); child of the failed kActuate.
  kFault = 8,       ///< One fault injection (zero duration); label =
                    ///< "<kind>:<target>".
};

const char* SpanKindToString(SpanKind kind);

/// One recorded span. Durations are virtual-time: start/end are sim
/// seconds, so a kEffect span's length is the settling interval on the
/// simulation clock, not host wall time. `label` is the loop / planner
/// name — short strings stay in SSO storage, so recording does not
/// allocate for typical names.
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;   ///< Direct cause (parent/child edge).
  SpanId follows = 0;  ///< Non-parental predecessor (follows-from edge):
                       ///< previous retry attempt, or the plan a
                       ///< decision's bounds came from.
  SpanKind kind = SpanKind::kSense;
  uint8_t outcome = 0;  ///< StepOutcome for decide/actuate spans.
  int pid = 1;          ///< Trace process lane (scope).
  int tid = 0;          ///< Trace thread lane within the scope.
  SimTime start = 0.0;
  SimTime end = 0.0;
  double value = 0.0;
  std::string label;
  bool open = false;  ///< Begun but not yet ended.
};

/// Bounded, preallocated collector of causal spans, and the system's
/// one trace emitter: obs::WriteChromeTrace renders the spans, joined
/// with the decision log, as Chrome trace JSON. Disabled by default: a
/// disabled collector's Begin/End/Emit are no-ops that return SpanId 0
/// and touch no memory beyond one branch, so leaving span plumbing
/// compiled into the hot control path costs nothing when the feature
/// is off. Enabling reserves the ring once (no steady-state
/// allocation afterwards). When the ring is full the *oldest* spans are
/// evicted — recent causality is what post-mortems query.
///
/// Id allocation is atomic, so concurrent recorders (fleet partitions
/// that share one collector) never mint the same id twice: distinct
/// ids land in distinct ring slots while the ring has room, so
/// concurrent Begin/End calls do not tear each other's records. Slot
/// *eviction* under concurrent writers is still last-writer-wins;
/// fleet runs that need deterministic ids give every flow partition
/// its own collector with a disjoint id namespace via set_id_offset.
class SpanCollector {
 public:
  explicit SpanCollector(size_t capacity = 1 << 16);
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Enabling allocates the ring on first use; disabling keeps already
  /// recorded spans readable but stops recording new ones.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Moves this collector's id namespace to (offset, offset + 2^40]:
  /// the first recorded span gets id offset + 1. Per-flow collectors in
  /// a fleet run use deterministic disjoint offsets (partition index ×
  /// kIdStride) so ids stay unique — and reproducible — fleet-wide
  /// without any cross-partition coordination. Must be called before
  /// the first span is recorded.
  Status set_id_offset(SpanId offset);
  SpanId id_offset() const { return id_offset_; }
  /// Id-namespace stride between sibling collectors (2^40 spans each).
  static constexpr SpanId kIdStride = SpanId{1} << 40;

  /// Opens a span. Returns its id, or 0 when disabled.
  SpanId Begin(SpanKind kind, std::string_view label, SimTime start,
               int pid, int tid, SpanId parent = 0, SpanId follows = 0);
  /// Closes an open span. No-op if `id` is 0, evicted, or disabled-time.
  void End(SpanId id, SimTime end, double value = 0.0, uint8_t outcome = 0);
  /// Begin+End in one call for spans whose duration is known up front.
  SpanId Emit(SpanKind kind, std::string_view label, SimTime start,
              double dur_sec, int pid, int tid, SpanId parent = 0,
              SpanId follows = 0, double value = 0.0, uint8_t outcome = 0);

  /// Retained record for `id`, or nullptr if never recorded / evicted.
  const SpanRecord* Find(SpanId id) const;

  /// Allocates a fresh pid for a named scope (flow, layer) and records
  /// its process name. Spans carrying the returned pid render in their
  /// own Perfetto lane group. Names are kept whether or not recording
  /// is enabled; they cost one map entry per scope or track.
  int RegisterScope(std::string name);
  /// Names the (pid, tid) track in the trace viewer ("loop:analytics").
  void SetTrackName(int pid, int tid, std::string name);
  /// Scope process names keyed by pid (kTracePid itself excluded; the
  /// exporter names it "flower").
  const std::map<int, std::string>& process_names() const {
    return process_names_;
  }
  /// Track names keyed by (pid, tid).
  const std::map<std::pair<int, int>, std::string>& track_names() const {
    return track_names_;
  }

  /// Oldest retained id (0 when empty) and one-past-newest id.
  SpanId first_retained() const;
  SpanId end_id() const { return next_id_.load(std::memory_order_relaxed); }

  size_t size() const;                ///< Retained span count.
  uint64_t total_started() const {
    uint64_t started = next_id_.load(std::memory_order_relaxed) - id_offset_ - 1;
    return started <= kIdStride ? started : kIdStride;
  }
  uint64_t evicted() const;
  size_t capacity() const { return capacity_; }

  /// Spans dropped because this collector exhausted its id namespace
  /// (total_started() reached kIdStride). Exhausted collectors return
  /// SpanId 0 from Begin/Emit instead of bleeding into the next
  /// sibling's (offset + kIdStride, ...] namespace; the first drop logs
  /// a one-shot warning.
  uint64_t id_overflows() const {
    return id_overflows_.load(std::memory_order_relaxed);
  }

  /// Test seam: burns `n` ids as if that many spans had been started,
  /// without touching the ring. Exercises namespace exhaustion without
  /// recording 2^40 spans.
  void AdvanceIdsForTest(uint64_t n) {
    next_id_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  SpanRecord* Slot(SpanId id) {
    return &ring_[(id - id_offset_ - 1) % capacity_];
  }

  bool enabled_ = false;
  size_t capacity_;
  SpanId id_offset_ = 0;
  /// Atomic so concurrent recorders never allocate one id twice (the
  /// pre-fleet plain increment dropped/collided ids under TSan).
  std::atomic<SpanId> next_id_{1};
  std::atomic<uint64_t> id_overflows_{0};
  std::vector<SpanRecord> ring_;  ///< Sized to capacity_ on first enable.
  int next_pid_ = kTracePid + 1;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> track_names_;
};

/// Post-run query index over a SpanCollector: resolves the causal chain
/// of a controller decision (its sensed-metric parents, actuation
/// children, observed effects, and the plan run its bounds came from).
/// Build once after the run; O(retained · log) construction, queries
/// are binary searches over sorted edge lists.
class SpanIndex {
 public:
  explicit SpanIndex(const SpanCollector& spans);

  const SpanRecord* Get(SpanId id) const { return spans_.Find(id); }
  /// Spans whose `parent` is `id`, ascending id order.
  std::vector<const SpanRecord*> ChildrenOf(SpanId id) const;
  /// Spans whose `follows` is `id`, ascending id order.
  std::vector<const SpanRecord*> FollowersOf(SpanId id) const;

  /// Everything causally attached to one kDecide span.
  struct CausalChain {
    const SpanRecord* decision = nullptr;
    std::vector<const SpanRecord*> senses;      ///< Parent chain (kSense).
    std::vector<const SpanRecord*> plans;       ///< follows-from (kPlan).
    std::vector<const SpanRecord*> actuations;  ///< Descendants (kActuate).
    std::vector<const SpanRecord*> effects;     ///< Observed settling
                                                ///< (kEffect) spans.
  };

  /// Resolves the full chain of `decision_id`. InvalidArgument when the
  /// id is not a kDecide span; NotFound when it was evicted/never
  /// recorded.
  Result<CausalChain> EffectOf(SpanId decision_id) const;

 private:
  const SpanCollector& spans_;
  /// (from, to) edges sorted by `from` then `to`.
  std::vector<std::pair<SpanId, SpanId>> children_;
  std::vector<std::pair<SpanId, SpanId>> followers_;
};

}  // namespace flower::obs

#endif  // FLOWER_OBS_SPAN_H_
