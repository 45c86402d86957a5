#ifndef FLOWER_FLOW_SLIDING_WINDOW_H_
#define FLOWER_FLOW_SLIDING_WINDOW_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"

namespace flower::flow {

/// Sliding-window per-entity counter — the aggregation at the heart of
/// the demo's click-stream topology (Amazon's "real-time sliding-window
/// dashboard over streaming data" reference architecture).
///
/// The window of length `window_sec` slides every `slide_sec`; both are
/// multiples of the internal bucket granularity (= slide_sec). On each
/// slide boundary, `AdvanceTo` invokes the emit callback once per
/// entity with that entity's total count over the trailing window.
///
/// Storage is flat and allocation-free in steady state: a power-of-two
/// ring of dense per-bucket entry vectors indexed by slide bucket, plus
/// an open-addressing table mapping entity ids to dense slots. The
/// nested `std::map<bucket, std::map<entity, count>>` this replaced
/// allocated a node per (bucket, entity) pair on the per-tuple path.
/// Emission order (ascending entity id) and floating-point accumulation
/// order are identical to the map-based implementation.
class SlidingWindowCounter {
 public:
  /// Emit callback: (entity_id, count, window_end_time). Must not
  /// re-enter Add/AdvanceTo on this counter (emission iterates internal
  /// scratch state).
  using EmitFn = std::function<void(int64_t, double, SimTime)>;

  /// window_sec must be a positive multiple of slide_sec.
  static Result<SlidingWindowCounter> Create(double window_sec,
                                             double slide_sec);

  /// Accounts `weight` clicks for `entity` at time t (t must be
  /// non-decreasing across calls, as guaranteed by the simulation).
  /// A timestamp that lands in an already-retired slide bucket (a late
  /// arrival) is clamped into the oldest bucket still inside a future
  /// window, so the count is never silently lost; `late_clamped()`
  /// reports how often that happened.
  void Add(int64_t entity, SimTime t, double weight = 1.0);

  /// Processes all slide boundaries up to `t`, emitting aggregates.
  void AdvanceTo(SimTime t, const EmitFn& emit);

  /// True exactly when `AdvanceTo(t)` has a slide boundary to process;
  /// otherwise AdvanceTo(t) does nothing. Inline, so the per-tuple
  /// caller can skip AdvanceTo (and building its callback) between
  /// boundaries.
  bool BoundaryDue(SimTime t) const {
    return started_ && static_cast<int64_t>(std::floor(t / slide_sec_)) >=
                           next_slide_bucket_;
  }

  double window_sec() const { return window_sec_; }
  double slide_sec() const { return slide_sec_; }
  /// Entities currently tracked in the open buckets. O(1): maintained
  /// incrementally (a per-entity live-bucket refcount), not recomputed —
  /// the metrics path samples this every period.
  size_t tracked_entities() const { return tracked_; }
  /// Late arrivals clamped into the oldest live bucket (see Add).
  uint64_t late_clamped() const { return late_clamped_; }

 private:
  /// One (entity, weight) contribution inside a bucket. `slot` is the
  /// entity's dense index in the slot table.
  struct Entry {
    uint32_t slot;
    double weight;
  };
  /// One slide bucket: its absolute index and dense contributions in
  /// first-arrival order (which fixes the FP accumulation order).
  struct Bucket {
    int64_t index = kNoBucket;
    std::vector<Entry> entries;
  };
  static constexpr int64_t kNoBucket =
      std::numeric_limits<int64_t>::min();

  SlidingWindowCounter(double window_sec, double slide_sec);

  uint32_t FindOrCreateSlot(int64_t entity);
  void GrowTable();
  Bucket& BucketFor(int64_t index);
  void GrowRing(int64_t index);
  void DropBucket(int64_t index);

  double window_sec_;
  double slide_sec_;
  int64_t buckets_per_window_;
  int64_t next_slide_bucket_ = 0;  ///< First un-emitted slide boundary.
  bool started_ = false;

  /// Ring of buckets, indexed by (bucket index & ring_mask_).
  std::vector<Bucket> ring_;
  size_t ring_mask_ = 0;

  // Entity -> dense slot, open addressing with linear probing.
  std::vector<int32_t> table_;  // -1 = empty, else slot.
  size_t table_mask_ = 0;
  std::vector<int64_t> slot_ids_;          // slot -> entity id.
  std::vector<int64_t> slot_last_bucket_;  // Bucket of the slot's newest entry.
  std::vector<uint32_t> slot_entry_pos_;   // Position of that entry.
  std::vector<uint32_t> slot_live_;        // Buckets holding this slot.
  size_t tracked_ = 0;                     // Slots with slot_live_ > 0.
  uint64_t late_clamped_ = 0;

  // Emission scratch, reused across boundaries (epoch-marked so it
  // needs no clearing).
  std::vector<double> scratch_total_;
  std::vector<uint64_t> scratch_epoch_;
  uint64_t epoch_ = 0;
  std::vector<std::pair<int64_t, uint32_t>> scratch_present_;
};

}  // namespace flower::flow

#endif  // FLOWER_FLOW_SLIDING_WINDOW_H_
