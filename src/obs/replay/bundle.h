#ifndef FLOWER_OBS_REPLAY_BUNDLE_H_
#define FLOWER_OBS_REPLAY_BUNDLE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/replay/flight_recorder.h"

namespace flower::obs::replay {

/// Bundle schema version written by WriteBundleJson. LoadBundleJson
/// accepts this version only: a newer bundle needs a newer build, and an
/// older one was captured under other random draws (schema 1 predates
/// the specified samplers), so replaying it would report a false
/// divergence.
inline constexpr int kBundleSchemaVersion = 2;

/// A self-contained postmortem capture: everything needed to rebuild
/// the captured tenant as a solo partition and re-run it to the trigger
/// time (identity, config spec, fault schedule, grant history), plus
/// the recorded decision-digest tail the replay is checked against.
/// Serialized as a single JSON file.
struct CaptureBundle {
  int schema_version = kBundleSchemaVersion;
  std::string tenant_id;
  size_t tenant_index = 0;
  uint64_t seed = 0;
  /// FingerprintInputs of the capture-time inputs.
  uint64_t fingerprint = 0;
  /// Capture window [window_start, trigger.time]: the oldest retained
  /// decision to the anomaly that armed the dump.
  SimTime window_start = 0.0;
  TriggerInfo trigger;
  RecorderConfig recorder;
  std::vector<std::pair<std::string, std::string>> spec;
  std::vector<FaultSpec> faults;
  std::vector<GrantEntry> grants;
  std::vector<ReplanEntry> replans;
  /// Loop names, indexed by the decisions' loop ids. A bundle and its
  /// replay may number loops differently; compare them by name.
  std::vector<std::string> loops;
  std::vector<RecordedDecision> decisions;
  std::vector<HashCheckpoint> checkpoints;
  uint64_t chain_hash = kFnvOffsetBasis;
  uint64_t total_decisions = 0;

  /// Name of loop `id`; empty when `id` is unknown.
  const std::string& LoopName(LoopId id) const;
};

/// FNV-1a over the canonical serialization of a run's inputs: identity,
/// spec rows and fault schedule, in that order. Two runs fingerprint
/// equal iff they describe the same deterministic run inputs; a bundle
/// whose inputs hash to its `fingerprint` is uncorrupted.
uint64_t FingerprintInputs(
    const std::string& tenant_id, size_t tenant_index, uint64_t seed,
    const std::vector<std::pair<std::string, std::string>>& spec,
    const std::vector<FaultSpec>& faults);

/// Snapshots a recorder into a bundle (fingerprint included).
CaptureBundle BundleFromRecorder(const FlightRecorder& recorder);

/// Writes the bundle as one JSON file. 64-bit hashes/ids are encoded as
/// decimal strings (JSON numbers are doubles), non-finite doubles as
/// "nan"/"inf"/"-inf" strings; everything else is plain JSON.
Status WriteBundleJson(const CaptureBundle& bundle, const std::string& path);

/// Parses a bundle written by WriteBundleJson and verifies it. Each
/// object must hold exactly the keys the writer writes for it, each
/// once, with values in the writer's encodings; a re-plan holds at most
/// ReplanEntry::kMaxShares shares. Every decision row must hash to its
/// `line_hash` and extend the chain of the row before it, and every
/// grant and re-plan amount must be finite and >= 0. Errors: unreadable
/// file, malformed JSON, a schema_version other than
/// kBundleSchemaVersion (older or newer), a missing, repeated or
/// unknown key, or a value that fails its check (InvalidArgument naming
/// the record and the key, or the decision index).
Result<CaptureBundle> LoadBundleJson(const std::string& path);

}  // namespace flower::obs::replay

#endif  // FLOWER_OBS_REPLAY_BUNDLE_H_
