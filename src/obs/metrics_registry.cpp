#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace flower::obs {

namespace {

// Relaxed-atomic accumulate for doubles (atomic<double>::fetch_add is
// C++20 but not universally lowered to hardware; a CAS loop is portable
// and allocation-free).
void AtomicAdd(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Collapsed series every over-cardinality registration of a metric name
// lands in (see MetricsRegistry::set_max_label_cardinality).
const LabelSet& OverflowLabels() {
  static const LabelSet kOverflow = {{"overflow", "true"}};
  return kOverflow;
}

// The guard's own counter; exempted from self-instrumentation inside
// AdmitSeriesLocked to keep the recursion finite.
constexpr char kOverflowCounterName[] = "registry.label_overflow";

// First entry of a name's series (of one kind) whose label-set id is
// not below `labels`.
template <typename Series>
auto LowerBound(Series& series, uint32_t labels) {
  return std::lower_bound(
      series.begin(), series.end(), labels,
      [](const auto& entry, uint32_t id) { return entry.first < id; });
}

// The instrument of label set `labels` in `series`, or nullptr.
template <typename Series>
auto InstrumentOf(const Series& series, uint32_t labels) {
  auto it = LowerBound(series, labels);
  return it != series.end() && it->first == labels ? it->second.get()
                                                   : nullptr;
}

}  // namespace

// Canonical label form: sorted by key, duplicate keys collapsed with
// the *last* written value winning (repeated assignment semantics), so
// {a=1,b=2}, {b=2,a=1}, and {a=0,a=1,b=2} all address the same series.
LabelSet MetricsRegistry::NormalizeLabels(LabelSet labels) {
  std::stable_sort(labels.begin(), labels.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  auto last_of_key = std::unique(
      labels.rbegin(), labels.rend(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  labels.erase(labels.begin(), last_of_key.base());
  return labels;
}

std::string MetricsRegistry::SeriesKey(const std::string& name,
                                       const LabelSet& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (options_.min <= 0.0) options_.min = 1e-3;
  if (options_.max <= options_.min) options_.max = options_.min * 2.0;
  if (options_.sub_buckets < 1) options_.sub_buckets = 1;
  // One underflow bucket, then sub_buckets linear buckets per octave
  // [min*2^k, min*2^(k+1)), then one overflow bucket.
  bounds_.push_back(options_.min);
  double lo = options_.min;
  while (lo < options_.max) {
    double hi = std::min(lo * 2.0, options_.max);
    double width = (hi - lo) / options_.sub_buckets;
    for (int i = 1; i <= options_.sub_buckets; ++i) {
      double b = i == options_.sub_buckets ? hi : lo + width * i;
      if (b > bounds_.back()) bounds_.push_back(b);
    }
    lo = hi;
  }
  // counts_ covers every [bounds_[i-1], bounds_[i]) range, bucket 0 is
  // [0, bounds_[0]), plus one trailing overflow bucket.
  counts_ = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::Record(double v) {
  if (std::isnan(v)) return;
  if (v < 0.0) v = 0.0;
  // Binary search over the precomputed boundaries: no allocation.
  size_t idx = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, v);
  AtomicMin(&min_, v);
  AtomicMax(&max_, v);
}

double Histogram::Min() const {
  double m = min_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

double Histogram::Max() const {
  double m = max_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

double Histogram::UpperBound(size_t i) const {
  if (i < bounds_.size()) return bounds_[i];
  return std::numeric_limits<double>::infinity();
}

Result<double> Histogram::Quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("Histogram::Quantile: q outside [0, 1]");
  }
  uint64_t total = TotalCount();
  if (total == 0) {
    return Status::NotFound("Histogram::Quantile: empty histogram");
  }
  double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      double lo = i == 0 ? 0.0 : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : Max();
      if (hi < lo) hi = lo;
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(c);
      // Interpolation assumes mass spread across the whole bucket; the
      // recorded Min()/Max() bound where mass can actually sit, so
      // clamping into [Min, Max] is a strict tightening (and makes the
      // estimate exact for constant streams, where the winning bucket
      // is wide but Min == Max).
      return std::clamp(lo + frac * (hi - lo), Min(), Max());
    }
    seen += c;
  }
  return Max();
}

uint32_t MetricsRegistry::InternNameLocked(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    it = name_ids_
             .emplace(name, static_cast<uint32_t>(families_.size()))
             .first;
    families_.push_back(Family{&it->first, {}, {}, {}, false});
  }
  return it->second;
}

bool MetricsRegistry::AdmitSeriesLocked(uint32_t family,
                                        const LabelSet& norm) {
  if (norm == OverflowLabels()) return true;  // Collapsed series: always.
  if (families_[family].size() < max_cardinality_) return true;
  ++label_overflow_total_;
  const std::string& name = *families_[family].name;
  if (name != kOverflowCounterName) {
    GetLocked(&Family::counters, kOverflowCounterName, {{"metric", name}},
              [] { return std::unique_ptr<Counter>(new Counter()); })
        ->Increment();
  }
  bool& warned = families_[family].overflow_warned;
  if (!warned) {
    warned = true;
    FLOWER_LOG(Warning) << "metrics registry: label cardinality cap ("
                        << max_cardinality_ << ") reached for metric '"
                        << name
                        << "'; further label-sets collapse into "
                           "{overflow=\"true\"}";
  }
  return false;
}

template <typename T, typename Make>
T* MetricsRegistry::GetLocked(Series<T> Family::*kind,
                              const std::string& name, LabelSet norm,
                              const Make& make) {
  const uint32_t family = InternNameLocked(name);
  auto label_it = label_ids_.find(norm);
  if (label_it != label_ids_.end()) {
    T* found = InstrumentOf(families_[family].*kind, label_it->second);
    if (found != nullptr) return found;
  }
  if (!AdmitSeriesLocked(family, norm)) {
    return GetLocked(kind, name, OverflowLabels(), make);
  }
  if (label_it == label_ids_.end()) {
    label_it = label_ids_
                   .emplace(std::move(norm),
                            static_cast<uint32_t>(label_sets_.size()))
                   .first;
    label_sets_.push_back(&label_it->first);
  }
  Series<T>& series = families_[family].*kind;
  auto it = LowerBound(series, label_it->second);
  return series.emplace(it, label_it->second, make())->second.get();
}

template <typename T>
const T* MetricsRegistry::FindLocked(Series<T> Family::*kind,
                                     const std::string& name,
                                     const LabelSet& norm) const {
  auto name_it = name_ids_.find(name);
  auto label_it = label_ids_.find(norm);
  if (name_it == name_ids_.end() || label_it == label_ids_.end()) {
    return nullptr;
  }
  return InstrumentOf(families_[name_it->second].*kind, label_it->second);
}

template <typename T, typename Visit>
void MetricsRegistry::ForEachSortedLocked(Series<T> Family::*kind,
                                          const Visit& visit) const {
  struct Ref {
    std::string key;
    const Family* family;
    const std::pair<uint32_t, std::unique_ptr<T>>* entry;
  };
  std::vector<Ref> refs;
  for (const Family& f : families_) {
    for (const auto& entry : f.*kind) {
      refs.push_back(
          {SeriesKey(*f.name, *label_sets_[entry.first]), &f, &entry});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const Ref& a, const Ref& b) { return a.key < b.key; });
  for (const Ref& r : refs) {
    visit(*r.family->name, *label_sets_[r.entry->first], *r.entry->second);
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(&Family::counters, name, std::move(norm), [] {
    return std::unique_ptr<Counter>(new Counter());
  });
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(&Family::gauges, name, std::move(norm),
                   [] { return std::unique_ptr<Gauge>(new Gauge()); });
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels,
                                         HistogramOptions options) {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(&Family::histograms, name, std::move(norm), [options] {
    return std::unique_ptr<Histogram>(new Histogram(options));
  });
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const LabelSet& labels) const {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(&Family::counters, name, norm);
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const LabelSet& labels) const {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(&Family::gauges, name, norm);
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const LabelSet& labels) const {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(&Family::histograms, name, norm);
}

uint64_t MetricsRegistry::label_overflow_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_overflow_total_;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  ForEachSortedLocked(&Family::counters, [&snap](const std::string& name,
                                                 const LabelSet& labels,
                                                 const Counter& c) {
    snap.counters.push_back({name, labels, c.Value()});
  });
  ForEachSortedLocked(&Family::gauges, [&snap](const std::string& name,
                                               const LabelSet& labels,
                                               const Gauge& g) {
    snap.gauges.push_back({name, labels, g.Value()});
  });
  ForEachSortedLocked(&Family::histograms, [&snap](const std::string& name,
                                                   const LabelSet& labels,
                                                   const Histogram& h) {
    HistogramSample s;
    s.name = name;
    s.labels = labels;
    s.count = h.TotalCount();
    s.sum = h.Sum();
    s.min = h.Min();
    s.max = h.Max();
    s.p50 = h.Quantile(0.5).ValueOr(0.0);
    s.p99 = h.Quantile(0.99).ValueOr(0.0);
    s.bounds.reserve(h.NumBuckets());
    s.buckets.reserve(h.NumBuckets());
    for (size_t i = 0; i < h.NumBuckets(); ++i) {
      s.bounds.push_back(h.UpperBound(i));
      s.buckets.push_back(h.BucketCount(i));
    }
    snap.histograms.push_back(std::move(s));
  });
  return snap;
}

size_t MetricsRegistry::NumInstruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Family& f : families_) n += f.size();
  return n;
}

}  // namespace flower::obs
