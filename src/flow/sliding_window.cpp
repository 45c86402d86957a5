#include "flow/sliding_window.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace flower::flow {

namespace {

inline size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The slot table starts with 2^kInitialTableBits entries.
constexpr unsigned kInitialTableBits = 6;

/// "window W s over slide S s", both in %g.
std::string Settings(double window_sec, double slide_sec) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "window %g s over slide %g s", window_sec,
                slide_sec);
  return buf;
}

}  // namespace

Result<SlidingWindowCounter> SlidingWindowCounter::Create(double window_sec,
                                                          double slide_sec) {
  // Written so that NaN fails each test: every later step casts the
  // ratio to an integer and sizes the bucket ring by it.
  if (!(slide_sec > 0.0 && window_sec > 0.0) || !std::isfinite(slide_sec) ||
      !std::isfinite(window_sec)) {
    return Status::InvalidArgument(
        "SlidingWindowCounter: " + Settings(window_sec, slide_sec) +
        ": window and slide must be finite and positive");
  }
  double ratio = window_sec / slide_sec;
  if (!(ratio <= static_cast<double>(kMaxBucketsPerWindow))) {
    return Status::InvalidArgument(
        "SlidingWindowCounter: " + Settings(window_sec, slide_sec) +
        ": more than " + std::to_string(kMaxBucketsPerWindow) +
        " slides per window");
  }
  if (std::fabs(ratio - std::round(ratio)) > 1e-9 || ratio < 1.0) {
    return Status::InvalidArgument(
        "SlidingWindowCounter: " + Settings(window_sec, slide_sec) +
        ": window must be a positive multiple of slide");
  }
  return SlidingWindowCounter(window_sec, slide_sec);
}

SlidingWindowCounter::SlidingWindowCounter(double window_sec, double slide_sec)
    : window_sec_(window_sec), slide_sec_(slide_sec),
      buckets_per_window_(static_cast<int64_t>(window_sec / slide_sec)) {
  // The live span is at most the window plus the bucket being filled;
  // one spare slot keeps the common case conflict-free.
  ring_.resize(NextPow2(static_cast<size_t>(buckets_per_window_) + 2));
  ring_mask_ = ring_.size() - 1;
  table_.assign(size_t{1} << kInitialTableBits, -1);
  table_mask_ = table_.size() - 1;
  table_shift_ = 64 - kInitialTableBits;
}

uint32_t SlidingWindowCounter::CreateSlot(int64_t entity, size_t h) {
  if ((slot_ids_.size() + 1) * 4 > table_.size() * 3) {
    GrowTable();
    // Re-probe in the grown table for the insertion point.
    h = TableIndex(entity, table_shift_);
    while (table_[h] >= 0) h = (h + 1) & table_mask_;
  }
  uint32_t slot = static_cast<uint32_t>(slot_ids_.size());
  table_[h] = static_cast<int32_t>(slot);
  slot_ids_.push_back(entity);
  slot_last_bucket_.push_back(kNoBucket);
  slot_entry_pos_.push_back(0);
  slot_live_.push_back(0);
  scratch_total_.push_back(0.0);
  scratch_epoch_.push_back(0);
  slots_by_entity_.insert(
      std::lower_bound(slots_by_entity_.begin(), slots_by_entity_.end(),
                       entity,
                       [this](uint32_t s, int64_t e) {
                         return slot_ids_[s] < e;
                       }),
      slot);
  return slot;
}

void SlidingWindowCounter::GrowTable() {
  std::vector<int32_t> fresh(table_.size() * 2, -1);
  size_t mask = fresh.size() - 1;
  unsigned shift = table_shift_ - 1;
  for (uint32_t slot = 0; slot < slot_ids_.size(); ++slot) {
    size_t h = TableIndex(slot_ids_[slot], shift);
    while (fresh[h] >= 0) h = (h + 1) & mask;
    fresh[h] = static_cast<int32_t>(slot);
  }
  table_ = std::move(fresh);
  table_mask_ = mask;
  table_shift_ = shift;
}

SlidingWindowCounter::Bucket& SlidingWindowCounter::BucketFor(int64_t index) {
  Bucket& b = ring_[static_cast<size_t>(index & static_cast<int64_t>(
                        ring_mask_))];
  if (b.index == index) return b;
  if (b.index != kNoBucket) {
    int64_t min_live = next_slide_bucket_ - buckets_per_window_;
    if (b.index >= min_live) {
      // The resident bucket still feeds a future window: the live span
      // outgrew the ring (Adds jumped far ahead without an AdvanceTo).
      GrowRing(index);
      return BucketFor(index);
    }
    // Past bucket that was never dropped explicitly; release its
    // contributions before recycling the slot.
    DropBucket(b.index);
  }
  b.index = index;
  b.entries.clear();
  return b;
}

void SlidingWindowCounter::GrowRing(int64_t index) {
  int64_t lo = index;
  int64_t hi = index;
  for (const Bucket& b : ring_) {
    if (b.index == kNoBucket) continue;
    lo = std::min(lo, b.index);
    hi = std::max(hi, b.index);
  }
  size_t need = static_cast<size_t>(hi - lo + 1);
  size_t cap = ring_.size();
  while (cap < need) cap <<= 1;
  std::vector<Bucket> fresh(cap);
  size_t mask = cap - 1;
  for (Bucket& b : ring_) {
    if (b.index == kNoBucket) continue;
    fresh[static_cast<size_t>(b.index & static_cast<int64_t>(mask))] =
        std::move(b);
  }
  ring_ = std::move(fresh);
  ring_mask_ = mask;
}

void SlidingWindowCounter::DropBucket(int64_t index) {
  Bucket& b =
      ring_[static_cast<size_t>(index & static_cast<int64_t>(ring_mask_))];
  if (b.index != index) return;
  for (const Entry& e : b.entries) {
    if (--slot_live_[e.slot] == 0) --tracked_;
  }
  b.entries.clear();
  b.index = kNoBucket;
}

int64_t SlidingWindowCounter::SettleBucket(SimTime t, size_t n) {
  // Every tuple of a bolt's batch carries the batch's time, so only the
  // first call at it divides; any other time, a late one included,
  // recomputes.
  if (t != last_add_time_) {
    last_add_time_ = t;
    last_add_bucket_ = static_cast<int64_t>(std::floor(t / slide_sec_));
  }
  int64_t bucket = last_add_bucket_;
  if (!started_) {
    next_slide_bucket_ = bucket + 1;
    started_ = true;
  }
  // Late arrival into an already-retired bucket: clamp into the oldest
  // bucket still inside a future window. The map-based implementation
  // silently resurrected the dead bucket — below `min_needed`, it was
  // never emitted and never dropped (lost count, unbounded growth).
  int64_t min_live = next_slide_bucket_ - buckets_per_window_;
  if (bucket < min_live) {
    bucket = min_live;
    late_clamped_ += n;
  }
  return bucket;
}

}  // namespace flower::flow
