#ifndef FLOWER_FLEET_REPLAY_HARNESS_H_
#define FLOWER_FLEET_REPLAY_HARNESS_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "fleet/flow_partition.h"
#include "obs/replay/bundle.h"
#include "obs/replay/divergence.h"

namespace flower::fleet {

/// Reconstructs the tenant of a capture bundle as a solo FlowPartition
/// and re-runs it to the trigger time, playing back the recorded
/// arbiter grants at their original timestamps. The replayed flight
/// recorder then carries a decision chain directly comparable to the
/// bundle's — CompareReplay pins the first divergence if any. The
/// capture is record-cheap; the replay is replay-rich: the decision
/// ring is forced large and span recording is turned on in the
/// partition's hub, so a postmortem sees everything the original fleet
/// run had disabled for scale.
class ReplayHarness {
 public:
  /// Builds the solo partition from the bundle's config fingerprint
  /// inputs (spec, seed, fault schedule). Errors:
  /// bundle without a latched trigger, malformed spec, partition
  /// construction failures. A fingerprint mismatch (bundle edited since
  /// capture) is a warning, not an error — the divergence checker will
  /// attribute it at decision granularity.
  static Result<std::unique_ptr<ReplayHarness>> Create(
      obs::replay::CaptureBundle bundle);

  /// Re-runs the partition to the recorded trigger time (inclusive),
  /// with grant playback events firing at their recorded timestamps.
  Status Run();

  /// Compares the replayed recorder against the bundle. Call after
  /// Run().
  obs::replay::DivergenceReport Check() const;

  FlowPartition& partition() { return *partition_; }
  const obs::replay::CaptureBundle& bundle() const { return bundle_; }

 private:
  ReplayHarness() = default;

  obs::replay::CaptureBundle bundle_;
  std::unique_ptr<FlowPartition> partition_;
};

}  // namespace flower::fleet

#endif  // FLOWER_FLEET_REPLAY_HARNESS_H_
