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

bool MetricsRegistry::AdmitSeriesLocked(const std::string& name,
                                        const LabelSet& norm) {
  if (norm == OverflowLabels()) return true;  // Collapsed series: always.
  auto it = series_per_name_.find(name);
  size_t count = it == series_per_name_.end() ? 0 : it->second;
  if (count < max_cardinality_) return true;
  ++label_overflow_total_;
  if (name != kOverflowCounterName) {
    GetCounterLocked(kOverflowCounterName, {{"metric", name}})->Increment();
  }
  bool& warned = overflow_warned_[name];
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

Counter* MetricsRegistry::GetCounterLocked(const std::string& name,
                                           LabelSet norm) {
  std::string key = SeriesKey(name, norm);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    if (!AdmitSeriesLocked(name, norm)) {
      return GetCounterLocked(name, OverflowLabels());
    }
    ++series_per_name_[name];
    Entry<Counter> e{name, std::move(norm),
                     std::unique_ptr<Counter>(new Counter())};
    it = counters_.emplace(std::move(key), std::move(e)).first;
  }
  return it->second.instrument.get();
}

Gauge* MetricsRegistry::GetGaugeLocked(const std::string& name,
                                       LabelSet norm) {
  std::string key = SeriesKey(name, norm);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    if (!AdmitSeriesLocked(name, norm)) {
      return GetGaugeLocked(name, OverflowLabels());
    }
    ++series_per_name_[name];
    Entry<Gauge> e{name, std::move(norm), std::unique_ptr<Gauge>(new Gauge())};
    it = gauges_.emplace(std::move(key), std::move(e)).first;
  }
  return it->second.instrument.get();
}

Histogram* MetricsRegistry::GetHistogramLocked(const std::string& name,
                                               LabelSet norm,
                                               HistogramOptions options) {
  std::string key = SeriesKey(name, norm);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    if (!AdmitSeriesLocked(name, norm)) {
      return GetHistogramLocked(name, OverflowLabels(), options);
    }
    ++series_per_name_[name];
    Entry<Histogram> e{name, std::move(norm),
                       std::unique_ptr<Histogram>(new Histogram(options))};
    it = histograms_.emplace(std::move(key), std::move(e)).first;
  }
  return it->second.instrument.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return GetCounterLocked(name, std::move(norm));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return GetGaugeLocked(name, std::move(norm));
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels,
                                         HistogramOptions options) {
  LabelSet norm = NormalizeLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  return GetHistogramLocked(name, std::move(norm), options);
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const LabelSet& labels) const {
  std::string key = SeriesKey(name, NormalizeLabels(labels));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  return it == counters_.end() ? nullptr : it->second.instrument.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const LabelSet& labels) const {
  std::string key = SeriesKey(name, NormalizeLabels(labels));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  return it == gauges_.end() ? nullptr : it->second.instrument.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const LabelSet& labels) const {
  std::string key = SeriesKey(name, NormalizeLabels(labels));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  return it == histograms_.end() ? nullptr : it->second.instrument.get();
}

uint64_t MetricsRegistry::label_overflow_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_overflow_total_;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, e] : counters_) {
    snap.counters.push_back({e.name, e.labels, e.instrument->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, e] : gauges_) {
    snap.gauges.push_back({e.name, e.labels, e.instrument->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, e] : histograms_) {
    const Histogram& h = *e.instrument;
    HistogramSample s;
    s.name = e.name;
    s.labels = e.labels;
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
  }
  return snap;
}

size_t MetricsRegistry::NumInstruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace flower::obs
