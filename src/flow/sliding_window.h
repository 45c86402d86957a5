#ifndef FLOWER_FLOW_SLIDING_WINDOW_H_
#define FLOWER_FLOW_SLIDING_WINDOW_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
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
/// an open-addressing table mapping entity ids to dense slots, indexed
/// by Fibonacci hashing (the id times the splitmix64 gamma, top bits):
/// an index needs spread, not avalanche, and no output depends on it,
/// because slots are numbered in first-arrival order. The
/// nested `std::map<bucket, std::map<entity, count>>` this replaced
/// allocated a node per (bucket, entity) pair on the per-tuple path.
/// Emission order (ascending entity id) and floating-point accumulation
/// order are identical to the map-based implementation. The slots are
/// kept in entity order as they are created, so a boundary emits by
/// walking that order instead of sorting what the window holds.
class SlidingWindowCounter {
 public:
  /// Most slide buckets one window may span: a day at 1.32 s slides,
  /// and a bucket ring of at most 4 MiB.
  static constexpr int64_t kMaxBucketsPerWindow = 65536;

  /// window_sec must be a finite positive multiple of slide_sec, by at
  /// most kMaxBucketsPerWindow.
  static Result<SlidingWindowCounter> Create(double window_sec,
                                             double slide_sec);

  /// Accounts `weight` clicks for `entity` at time t: `AddBatch` of one.
  void Add(int64_t entity, SimTime t, double weight = 1.0) {
    AddBatch(t, 1, [entity, weight](size_t) {
      return std::pair<int64_t, double>(entity, weight);
    });
  }

  /// Accounts n contributions at time t, in order: `contribution(i)`
  /// for i in [0, n) returns the (entity, weight) pair of the i-th. t
  /// must be non-decreasing across calls, as guaranteed by the
  /// simulation. A timestamp that lands in an already-retired slide
  /// bucket (a late arrival) is clamped into the oldest bucket still
  /// inside a future window, so the count is never silently lost;
  /// `late_clamped()` counts the contributions clamped. The bucket and
  /// the clamp are settled once per call, and the slide bucket of the
  /// last timestamp is kept, so calls at one time divide once. A
  /// template, so the per-contribution work is inlined into the caller.
  template <typename Contribution>
  void AddBatch(SimTime t, size_t n, Contribution&& contribution);

  /// Processes all slide boundaries up to `t`, calling
  /// `emit(entity_id, count, window_end_time)` once per entity the
  /// window holds, in ascending entity id. `emit` must not re-enter
  /// Add/AdvanceTo on this counter (emission iterates internal scratch
  /// state). A template, so the per-aggregate call is inlined.
  template <typename Emit>
  void AdvanceTo(SimTime t, Emit&& emit);

  /// True exactly when `AdvanceTo(t)` has a slide boundary to process;
  /// otherwise AdvanceTo(t) does nothing. Inline, so the per-batch
  /// caller can skip AdvanceTo between boundaries.
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

  /// Fibonacci hashing: the top `64 - shift` bits of the id times the
  /// splitmix64 gamma index a table of 2^(64 - shift) entries.
  static size_t TableIndex(int64_t entity, unsigned shift) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(entity) * kSplitMix64Gamma) >> shift);
  }
  /// The slot of `entity`. The probe's hit path is inline; a missing
  /// entity gets a slot from CreateSlot at the empty entry `h` ended on.
  uint32_t SlotOf(int64_t entity) {
    size_t h = TableIndex(entity, table_shift_);
    while (table_[h] >= 0) {
      const uint32_t slot = static_cast<uint32_t>(table_[h]);
      if (slot_ids_[slot] == entity) return slot;
      h = (h + 1) & table_mask_;
    }
    return CreateSlot(entity, h);
  }
  uint32_t CreateSlot(int64_t entity, size_t h);
  void GrowTable();
  /// The slide bucket that n contributions at time t go to, after the
  /// first contribution's start and the late clamp.
  int64_t SettleBucket(SimTime t, size_t n);
  Bucket& BucketFor(int64_t index);
  void GrowRing(int64_t index);
  void DropBucket(int64_t index);

  double window_sec_;
  double slide_sec_;
  int64_t buckets_per_window_;
  int64_t next_slide_bucket_ = 0;  ///< First un-emitted slide boundary.
  bool started_ = false;
  /// The last timestamp Add bucketed (NaN: none) and its slide bucket,
  /// before any late clamp.
  SimTime last_add_time_ = std::numeric_limits<double>::quiet_NaN();
  int64_t last_add_bucket_ = 0;

  /// Ring of buckets, indexed by (bucket index & ring_mask_).
  std::vector<Bucket> ring_;
  size_t ring_mask_ = 0;

  // Entity -> dense slot, open addressing with linear probing.
  std::vector<int32_t> table_;  // -1 = empty, else slot.
  size_t table_mask_ = 0;
  unsigned table_shift_ = 0;  // 64 - log2(table_.size()).
  std::vector<int64_t> slot_ids_;          // slot -> entity id.
  std::vector<int64_t> slot_last_bucket_;  // Bucket of the slot's newest entry.
  std::vector<uint32_t> slot_entry_pos_;   // Position of that entry.
  std::vector<uint32_t> slot_live_;        // Buckets holding this slot.
  std::vector<uint32_t> slots_by_entity_;  // Every slot, ascending id.
  size_t tracked_ = 0;                     // Slots with slot_live_ > 0.
  uint64_t late_clamped_ = 0;

  // Emission scratch, reused across boundaries (epoch-marked so it
  // needs no clearing).
  std::vector<double> scratch_total_;
  std::vector<uint64_t> scratch_epoch_;
  uint64_t epoch_ = 0;
};

template <typename Contribution>
void SlidingWindowCounter::AddBatch(SimTime t, size_t n,
                                    Contribution&& contribution) {
  if (n == 0) return;
  const int64_t bucket = SettleBucket(t, n);
  Bucket& b = BucketFor(bucket);
  for (size_t i = 0; i < n; ++i) {
    const auto [entity, weight] = contribution(i);
    const uint32_t slot = SlotOf(entity);
    if (slot_last_bucket_[slot] == bucket) {
      b.entries[slot_entry_pos_[slot]].weight += weight;
      continue;
    }
    slot_last_bucket_[slot] = bucket;
    slot_entry_pos_[slot] = static_cast<uint32_t>(b.entries.size());
    b.entries.push_back(Entry{slot, weight});
    if (slot_live_[slot]++ == 0) ++tracked_;
  }
}

template <typename Emit>
void SlidingWindowCounter::AdvanceTo(SimTime t, Emit&& emit) {
  if (!started_) return;
  int64_t current_bucket = static_cast<int64_t>(std::floor(t / slide_sec_));
  // Every completed bucket boundary <= current triggers one emission of
  // the trailing window.
  while (next_slide_bucket_ <= current_bucket) {
    int64_t end_bucket = next_slide_bucket_;  // Exclusive window end.
    int64_t begin_bucket = end_bucket - buckets_per_window_;
    ++epoch_;
    // Accumulate buckets in ascending index order and entries in
    // first-arrival order within each bucket — the same floating-point
    // summation order as the nested-map implementation.
    for (int64_t idx = begin_bucket; idx < end_bucket; ++idx) {
      const Bucket& b = ring_[static_cast<size_t>(
          idx & static_cast<int64_t>(ring_mask_))];
      if (b.index != idx) continue;
      for (const Entry& e : b.entries) {
        // Whether the slot was seen this epoch is a coin flip per
        // entry, so it selects by mask, not by branch: the sum is
        // always formed, and the mask picks its bits or the weight's,
        // exactly the value the branch stored.
        const uint64_t seen =
            0 - static_cast<uint64_t>(scratch_epoch_[e.slot] == epoch_);
        const uint64_t sum =
            std::bit_cast<uint64_t>(scratch_total_[e.slot] + e.weight);
        const uint64_t fresh = std::bit_cast<uint64_t>(e.weight);
        scratch_total_[e.slot] =
            std::bit_cast<double>((sum & seen) | (fresh & ~seen));
        scratch_epoch_[e.slot] = epoch_;
      }
    }
    // Ascending entity id, matching std::map iteration order.
    SimTime window_end = static_cast<double>(end_bucket) * slide_sec_;
    for (uint32_t slot : slots_by_entity_) {
      if (scratch_epoch_[slot] == epoch_) {
        emit(slot_ids_[slot], scratch_total_[slot], window_end);
      }
    }
    ++next_slide_bucket_;
    // Drop the one bucket that can no longer contribute to any future
    // window. (Boundaries advance one at a time, so by induction no
    // older bucket can still exist.)
    DropBucket(next_slide_bucket_ - buckets_per_window_ - 1);
  }
}

}  // namespace flower::flow

#endif  // FLOWER_FLOW_SLIDING_WINDOW_H_
