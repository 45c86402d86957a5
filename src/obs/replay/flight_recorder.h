#ifndef FLOWER_OBS_REPLAY_FLIGHT_RECORDER_H_
#define FLOWER_OBS_REPLAY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "obs/event_log.h"

namespace flower::obs::replay {

/// Ring capacities of one flight recorder. Every ring is preallocated
/// at construction, so steady-state recording never allocates — the
/// black box can ride inside a thousand fleet partitions without
/// touching the hot-path allocation budget.
struct RecorderConfig {
  /// Tail of the control-decision digest kept for step-by-step
  /// divergence checking (oldest evicted first).
  size_t decision_capacity = 1024;
  /// Arbiter grant history (one entry per arbitration period).
  size_t grant_capacity = 256;
  /// Re-plan applications (one entry per successful re-plan).
  size_t replan_capacity = 256;
  /// Running-digest checkpoints: one every `checkpoint_every` decisions,
  /// so divergence that predates the retained decision tail can still be
  /// localized to a window of `checkpoint_every` steps.
  size_t checkpoint_every = 64;
  size_t checkpoint_capacity = 128;
};

/// One scheduled fault, as plain recordable data (the obs mirror of
/// sim::FaultSpec — obs cannot depend on sim). `kind` strings match
/// sim::FaultKindToString.
struct RecordedFault {
  std::string kind;
  std::string target;
  SimTime start = 0.0;
  SimTime end = std::numeric_limits<double>::infinity();
  double probability = 1.0;
  double delay_sec = 0.0;
  double factor = 1.0;
  double offset = 0.0;
};

/// One recorded control decision: the decision record plus the hash of
/// its canonical digest line and the running digest, so a replay can be
/// compared step-by-step without re-parsing text.
struct RecordedDecision {
  uint64_t index = 0;  ///< 0-based position in the decision stream.
  ControlDecisionRecord record;
  uint64_t line_hash = 0;  ///< FNV-1a of this decision's canonical line.
  uint64_t chain = 0;      ///< Digest chain value *after* this decision.
};

/// One arbiter grant (demand the arbitration ran on, budget granted).
struct GrantEntry {
  uint64_t index = 0;  ///< 0-based arbitration period number.
  SimTime time = 0.0;  ///< Period start.
  double demand_usd = 0.0;
  double grant_usd = 0.0;
};

/// One applied re-plan (budget the solve ran under, MaxShares bounds).
struct ReplanEntry {
  static constexpr int kMaxShares = 4;
  uint64_t index = 0;  ///< 0-based re-plan number.
  SimTime time = 0.0;
  double budget_usd = 0.0;
  double shares[kMaxShares] = {0.0, 0.0, 0.0, 0.0};
  int num_shares = 0;
  bool applied = false;  ///< False when the plan had no usable MaxShares.
};

/// Running-digest checkpoint: the chain hash after `index + 1` decisions.
struct HashCheckpoint {
  uint64_t index = 0;
  SimTime time = 0.0;
  uint64_t chain = 0;
};

/// The anomaly that armed the capture. Latched once: the first trigger
/// wins, later alerts on the same partition do not overwrite it.
struct TriggerInfo {
  bool fired = false;
  SimTime time = 0.0;
  std::string reason;     ///< SLO id, or "explicit".
  uint64_t span_id = 0;   ///< Latest decide-span id at trigger time.
  double burn_fast = 0.0;
  double burn_slow = 0.0;
};

/// 64-bit FNV-1a over `len` bytes, continuing from `seed` (pass
/// kFnvOffsetBasis to start a fresh hash). The decision digest chain is
/// chain' = FnvMix(chain, line) — each line's hash is seeded by the
/// previous chain value, so any historical mismatch poisons every later
/// chain value.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
uint64_t FnvMix(uint64_t seed, const void* data, size_t len);

/// Bounded black box for one flow/partition: identity (tenant, seeds,
/// schema-1 span_id_offset), config spec, fault schedule, arbiter grant
/// history, re-plan history, and the tail of the control-decision
/// digest with a running chain hash. Everything after construction and
/// the setup-time setters is allocation-free, so a recorder per
/// partition costs a fixed few-hundred KB and zero steady-tick allocs.
///
/// Not thread-safe: each partition owns one recorder and records into
/// it only from its own simulation thread (the same contract as the
/// partition's telemetry hub).
class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // --- Setup-time capture (may allocate; call before the run). ---

  void SetIdentity(std::string tenant_id, size_t tenant_index, uint64_t seed,
                   uint64_t span_id_offset);
  /// Replaces the config spec: ordered (key, value) pairs covering every
  /// decision-relevant knob (see fleet::SerializePartitionSpec).
  void SetSpec(std::vector<std::pair<std::string, std::string>> spec);
  void AddFault(RecordedFault fault);
  void ClearFaults() { faults_.clear(); }

  /// FNV-1a over the canonical serialization of identity + spec +
  /// faults. Two recorders fingerprint equal iff they describe the same
  /// deterministic run inputs.
  uint64_t Fingerprint() const;

  /// The table the recorded loop ids index (the recording manager's
  /// decision log's). Not owned.
  void SetLoopTable(const LoopTable* loops) { loops_ = loops; }
  /// Name of loop `id`; empty when no table is set or `id` is unknown.
  const std::string& LoopName(LoopId id) const;
  size_t num_loops() const { return loops_ == nullptr ? 0 : loops_->size(); }

  // --- Hot path (allocation-free). ---

  /// Appends one decision: formats its canonical digest line
  /// (FormatDigestLine, as the fleet's ControlDigest does), advances
  /// the chain hash, and pushes the record into the decision ring.
  void RecordDecision(const ControlDecisionRecord& record);

  // --- Period/boundary paths (allocation-free). ---

  void RecordGrant(SimTime t, double demand_usd, double grant_usd);
  void RecordReplan(SimTime t, double budget_usd, const double* shares,
                    int num_shares, bool applied);

  /// Latches the capture trigger (first call wins; later calls no-op).
  /// `reason` is copied into the latched TriggerInfo (one allocation at
  /// trigger time — the run is over for this partition's hot path).
  void Trigger(SimTime t, const std::string& reason, double burn_fast = 0.0,
               double burn_slow = 0.0);

  // --- Read side. ---

  const RecorderConfig& config() const { return config_; }
  const std::string& tenant_id() const { return tenant_id_; }
  size_t tenant_index() const { return tenant_index_; }
  uint64_t seed() const { return seed_; }
  uint64_t span_id_offset() const { return span_id_offset_; }
  const std::vector<std::pair<std::string, std::string>>& spec() const {
    return spec_;
  }
  const std::vector<RecordedFault>& faults() const { return faults_; }
  const TriggerInfo& trigger() const { return trigger_; }

  uint64_t total_decisions() const { return total_decisions_; }
  uint64_t chain_hash() const { return chain_; }
  /// Time of the oldest retained decision (the capture window start);
  /// 0.0 when no decision was recorded yet.
  SimTime window_start() const;

  /// Retained rings, oldest first.
  std::vector<RecordedDecision> Decisions() const;
  std::vector<GrantEntry> Grants() const;
  std::vector<ReplanEntry> Replans() const;
  std::vector<HashCheckpoint> Checkpoints() const;

  uint64_t total_grants() const { return total_grants_; }
  uint64_t total_replans() const { return total_replans_; }

 private:
  template <typename T>
  static std::vector<T> RingSnapshot(const std::vector<T>& ring,
                                     uint64_t total, size_t capacity);

  RecorderConfig config_;
  std::string tenant_id_;
  size_t tenant_index_ = 0;
  uint64_t seed_ = 0;
  uint64_t span_id_offset_ = 0;
  std::vector<std::pair<std::string, std::string>> spec_;
  std::vector<RecordedFault> faults_;
  TriggerInfo trigger_;
  const LoopTable* loops_ = nullptr;

  uint64_t chain_ = kFnvOffsetBasis;
  uint64_t total_decisions_ = 0;
  uint64_t total_grants_ = 0;
  uint64_t total_replans_ = 0;
  uint64_t total_checkpoints_ = 0;
  uint64_t last_span_id_ = 0;
  std::vector<RecordedDecision> decisions_;
  std::vector<GrantEntry> grants_;
  std::vector<ReplanEntry> replans_;
  std::vector<HashCheckpoint> checkpoints_;
};

}  // namespace flower::obs::replay

#endif  // FLOWER_OBS_REPLAY_FLIGHT_RECORDER_H_
