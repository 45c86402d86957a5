#ifndef FLOWER_OBS_METRICS_REGISTRY_H_
#define FLOWER_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace flower::obs {

/// Instrument labels, e.g. {{"layer","analytics"},{"controller",
/// "adaptive-gain"}}. Normalized (sorted by key) at registration; two
/// label sets with the same pairs address the same instrument.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count. The increment is one relaxed
/// atomic add — no locks, no heap traffic — so it is safe on the
/// control-loop hot path (and from concurrent readers of a future
/// multi-threaded driver).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins instantaneous measurement (front size, gain, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a Histogram: log-linear — each power-of-two range
/// ("octave") between `min` and `max` is split into `sub_buckets`
/// equal-width linear buckets, giving bounded relative error at every
/// scale with a fixed, allocation-free bucket count.
struct HistogramOptions {
  double min = 1e-3;   ///< Values below land in the underflow bucket.
  double max = 1e7;    ///< Values at/above land in the overflow bucket.
  int sub_buckets = 4; ///< Linear subdivisions per octave (>= 1).
};

/// Fixed-bucket histogram. `Record` computes a bucket index and does a
/// relaxed atomic add — no allocation, no locking. Bucket boundaries
/// are precomputed at registration time.
class Histogram {
 public:
  /// Records one observation. Never allocates.
  void Record(double v);

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Min/Max of recorded values; 0 when empty.
  double Min() const;
  double Max() const;
  double Mean() const {
    uint64_t n = TotalCount();
    return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
  }

  /// Bucket i counts values in [LowerBound(i), UpperBound(i)). Bucket 0
  /// is the underflow bucket [0, min); the last is the overflow bucket
  /// [max, +inf).
  size_t NumBuckets() const { return counts_.size(); }
  uint64_t BucketCount(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  double UpperBound(size_t i) const;

  /// Approximate quantile (q in [0,1]) by linear interpolation within
  /// the containing bucket; NotFound when the histogram is empty.
  Result<double> Quantile(double q) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramOptions options);

  HistogramOptions options_;
  std::vector<double> bounds_;  ///< Upper bound of each non-overflow bucket.
  /// One atomic per bucket; the vector is sized once at construction
  /// and never resized, so Record never allocates.
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of one instrument (deep copy: mutating the live
/// registry after `Snapshot()` never changes an existing snapshot).
struct CounterSample {
  std::string name;
  LabelSet labels;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  LabelSet labels;
  double value = 0.0;
};
struct HistogramSample {
  std::string name;
  LabelSet labels;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;    ///< Upper bound per bucket.
  std::vector<uint64_t> buckets; ///< Count per bucket.
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Named, labeled instrument registry — the process-wide source of
/// truth every Flower component reports through (§4's live charts are
/// views over it). Registration (GetCounter/GetGauge/GetHistogram)
/// takes a lock and may allocate; it returns a stable pointer the
/// caller caches, after which increments/records are lock-free and
/// allocation-free. Re-registering the same (name, labels) returns the
/// existing instrument. Each name and each normalized label set is
/// stored once per registry, however many instruments share it; series
/// keys are built only when `Snapshot()` sorts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  /// `options` apply only on first registration of (name, labels).
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels = {},
                          HistogramOptions options = {});

  /// Non-creating lookups: nullptr when the series was never registered.
  /// Unlike Get*, these never mutate the registry, so pollers (tracked
  /// snapshots, exporters) can probe for not-yet-registered series
  /// without materializing empty instruments.
  const Counter* FindCounter(const std::string& name,
                             const LabelSet& labels = {}) const;
  const Gauge* FindGauge(const std::string& name,
                         const LabelSet& labels = {}) const;
  const Histogram* FindHistogram(const std::string& name,
                                 const LabelSet& labels = {}) const;

  /// Caps distinct label-sets per metric name (all kinds combined).
  /// Once a name is at the cap, further label-sets are *not* registered:
  /// the call returns that name's shared overflow instrument (labels
  /// {{"overflow","true"}}), increments the
  /// `registry.label_overflow{metric=<name>}` counter, and logs a
  /// one-shot warning — so a buggy per-entity label (request id, host,
  /// ...) degrades to one coarse series instead of OOMing a fleet run.
  void set_max_label_cardinality(size_t cap) { max_cardinality_ = cap; }
  size_t max_label_cardinality() const { return max_cardinality_; }
  /// Registrations rejected by the cardinality guard so far.
  uint64_t label_overflow_total() const;

  /// Deep copy of every instrument, sorted by (name, labels).
  MetricsSnapshot Snapshot() const;

  size_t NumInstruments() const;

  /// Canonical label form: sorted by key, duplicate keys collapsed with
  /// the last written value winning.
  static LabelSet NormalizeLabels(LabelSet labels);
  /// Series key for normalized labels — equal series, equal keys.
  /// `Snapshot()` orders each kind's series by it.
  static std::string SeriesKey(const std::string& name,
                               const LabelSet& labels);

 private:
  /// Instruments of one kind under one name, as (label-set id,
  /// instrument) sorted by id. The cardinality guard bounds its length.
  template <typename T>
  using Series = std::vector<std::pair<uint32_t, std::unique_ptr<T>>>;
  /// Everything registered under one name.
  struct Family {
    const std::string* name;  ///< Key of `name_ids_`.
    Series<Counter> counters;
    Series<Gauge> gauges;
    Series<Histogram> histograms;
    bool overflow_warned = false;
    size_t size() const {
      return counters.size() + gauges.size() + histograms.size();
    }
  };

  /// The registry's one copy of `name`, interned on first use. mu_ held.
  uint32_t InternNameLocked(const std::string& name);
  /// True when `norm` may register a new series under `family`; on
  /// rejection bumps the overflow counter and warns once per name.
  /// May intern the overflow counter's name, so it invalidates
  /// references into `families_`. mu_ held.
  bool AdmitSeriesLocked(uint32_t family, const LabelSet& norm);
  /// The instrument of (name, norm) in `kind`, made by `make` when the
  /// series is new and admitted; mu_ held.
  template <typename T, typename Make>
  T* GetLocked(Series<T> Family::*kind, const std::string& name,
               LabelSet norm, const Make& make);
  template <typename T>
  const T* FindLocked(Series<T> Family::*kind, const std::string& name,
                      const LabelSet& norm) const;
  /// Calls `visit(name, labels, instrument)` for every series of
  /// `kind`, in series-key order. mu_ held.
  template <typename T, typename Visit>
  void ForEachSortedLocked(Series<T> Family::*kind,
                           const Visit& visit) const;

  mutable std::mutex mu_;
  /// Each name and each normalized label set is stored once; a series
  /// is a pair of their ids.
  std::map<std::string, uint32_t> name_ids_;
  std::vector<Family> families_;  ///< By name id.
  std::map<LabelSet, uint32_t> label_ids_;
  std::vector<const LabelSet*> label_sets_;  ///< By id; keys of label_ids_.
  size_t max_cardinality_ = 1024;
  uint64_t label_overflow_total_ = 0;
};

}  // namespace flower::obs

#endif  // FLOWER_OBS_METRICS_REGISTRY_H_
