#ifndef FLOWER_OBS_TRACKED_SNAPSHOT_H_
#define FLOWER_OBS_TRACKED_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"

namespace flower::obs {

/// Sparse point-in-time view of a handful of registry series: Track*()
/// the series a consumer reads, call Tick() once per evaluation, and
/// read snapshot(). Tick reads only the tracked instruments' atomics
/// into reused buffers, so it never deep-copies the registry and never
/// allocates once every tracked instrument has resolved. This is the
/// health plane's only metric feed (SLO trackers and anomaly
/// detectors); the history they need lives in their own windows.
///
/// Instruments are resolved lazily: tracking a series that is not yet
/// registered is fine; it is absent from the snapshot until some
/// component registers it (matching the SLO engine's "missing until
/// registered" semantics), then appears from the next tick on.
/// Tracking never creates instruments.
///
/// Single-writer like the rest of the telemetry hub: Tick/Track from
/// the simulation thread only.
class TrackedSnapshot {
 public:
  explicit TrackedSnapshot(MetricsRegistry* registry);

  /// Track a series; returns a stable track id. Re-tracking the same
  /// (kind, name, labels) returns the same id.
  size_t TrackCounter(const std::string& name, const LabelSet& labels = {});
  size_t TrackGauge(const std::string& name, const LabelSet& labels = {});
  size_t TrackHistogram(const std::string& name, const LabelSet& labels = {});

  /// Resolves late instruments and samples every resolved one.
  void Tick();

  size_t NumTracked() const { return tracked_.size(); }

  /// The tracked series that have resolved, as of the last Tick — the
  /// exact shape MetricsRegistry::Snapshot() produces, restricted to
  /// tracked instruments. The reference stays valid for the store's
  /// lifetime; the values are updated in place by each Tick().
  const MetricsSnapshot& snapshot() const { return snapshot_; }

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Tracked {
    Kind kind = Kind::kGauge;
    std::string name;
    LabelSet labels;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    /// Index into snapshot_'s counters/gauges/histograms vector, or -1
    /// until the instrument resolves.
    int slot = -1;
  };

  size_t Track(Kind kind, const std::string& name, const LabelSet& labels);
  /// Looks the instrument up and, when found, gives it a snapshot slot.
  void Resolve(Tracked* t);

  MetricsRegistry* registry_;
  std::vector<Tracked> tracked_;
  /// Kind-prefixed series key -> index into tracked_, for re-track dedup.
  std::vector<std::pair<std::string, size_t>> index_;  ///< Sorted.
  MetricsSnapshot snapshot_;  ///< Reused sparse snapshot buffer.
};

}  // namespace flower::obs

#endif  // FLOWER_OBS_TRACKED_SNAPSHOT_H_
