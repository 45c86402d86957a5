#ifndef FLOWER_OBS_REPLAY_BUNDLE_H_
#define FLOWER_OBS_REPLAY_BUNDLE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/replay/flight_recorder.h"

namespace flower::obs::replay {

/// Bundle schema version written by WriteBundleJson; LoadBundleJson
/// rejects bundles from a newer schema.
inline constexpr int kBundleSchemaVersion = 1;

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
  /// Schema-1 data: the span-id namespace partitions once reserved
  /// (tenant index << 40). Spans are numbered per collector now; the
  /// field stays because bundles and their fingerprints carry it.
  uint64_t span_id_offset = 0;
  /// FlightRecorder::Fingerprint() of the capture-time inputs.
  uint64_t fingerprint = 0;
  /// Capture window [window_start, trigger.time]: the oldest retained
  /// decision to the anomaly that armed the dump.
  SimTime window_start = 0.0;
  TriggerInfo trigger;
  RecorderConfig recorder;
  std::vector<std::pair<std::string, std::string>> spec;
  std::vector<RecordedFault> faults;
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

/// Snapshots a recorder into a bundle (fingerprint included).
CaptureBundle BundleFromRecorder(const FlightRecorder& recorder);

/// Recomputes the fingerprint from the bundle's identity + spec +
/// faults (must equal bundle.fingerprint for an uncorrupted bundle).
uint64_t BundleFingerprint(const CaptureBundle& bundle);

/// Writes the bundle as one JSON file. 64-bit hashes/ids are encoded as
/// decimal strings (JSON numbers are doubles), non-finite times as
/// "inf"/"-inf" strings; everything else is plain JSON.
Status WriteBundleJson(const CaptureBundle& bundle, const std::string& path);

/// Parses a bundle written by WriteBundleJson and verifies it: every
/// decision row must hash to its `line_hash` and extend the chain of
/// the row before it, and every grant and re-plan amount must be finite
/// and >= 0. Errors: unreadable file, malformed JSON, missing required
/// fields, a newer schema_version, or a row that fails verification
/// (InvalidArgument naming the decision index or the field).
Result<CaptureBundle> LoadBundleJson(const std::string& path);

}  // namespace flower::obs::replay

#endif  // FLOWER_OBS_REPLAY_BUNDLE_H_
