#include "obs/tracked_snapshot.h"

#include <algorithm>

namespace flower::obs {

TrackedSnapshot::TrackedSnapshot(MetricsRegistry* registry)
    : registry_(registry) {}

size_t TrackedSnapshot::TrackCounter(const std::string& name,
                                     const LabelSet& labels) {
  return Track(Kind::kCounter, name, labels);
}

size_t TrackedSnapshot::TrackGauge(const std::string& name,
                                   const LabelSet& labels) {
  return Track(Kind::kGauge, name, labels);
}

size_t TrackedSnapshot::TrackHistogram(const std::string& name,
                                       const LabelSet& labels) {
  return Track(Kind::kHistogram, name, labels);
}

size_t TrackedSnapshot::Track(Kind kind, const std::string& name,
                              const LabelSet& labels) {
  LabelSet norm = MetricsRegistry::NormalizeLabels(labels);
  std::string key(1, static_cast<char>(kind));
  key += MetricsRegistry::SeriesKey(name, norm);
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const auto& pair, const std::string& k) { return pair.first < k; });
  if (it != index_.end() && it->first == key) return it->second;

  Tracked t;
  t.kind = kind;
  t.name = name;
  t.labels = std::move(norm);
  size_t id = tracked_.size();
  tracked_.push_back(std::move(t));
  index_.insert(it, {std::move(key), id});
  Resolve(&tracked_[id]);
  return id;
}

void TrackedSnapshot::Resolve(Tracked* t) {
  switch (t->kind) {
    case Kind::kCounter:
      t->counter = registry_->FindCounter(t->name, t->labels);
      if (t->counter != nullptr) {
        t->slot = static_cast<int>(snapshot_.counters.size());
        snapshot_.counters.push_back({t->name, t->labels, 0});
      }
      break;
    case Kind::kGauge:
      t->gauge = registry_->FindGauge(t->name, t->labels);
      if (t->gauge != nullptr) {
        t->slot = static_cast<int>(snapshot_.gauges.size());
        snapshot_.gauges.push_back({t->name, t->labels, 0.0});
      }
      break;
    case Kind::kHistogram:
      t->histogram = registry_->FindHistogram(t->name, t->labels);
      if (t->histogram != nullptr) {
        t->slot = static_cast<int>(snapshot_.histograms.size());
        HistogramSample s;
        s.name = t->name;
        s.labels = t->labels;
        snapshot_.histograms.push_back(std::move(s));
      }
      break;
  }
}

void TrackedSnapshot::Tick() {
  for (Tracked& t : tracked_) {
    // Lazy resolution: the instrument may have been registered since
    // the last tick.
    if (t.slot < 0) Resolve(&t);
    if (t.slot < 0) continue;
    switch (t.kind) {
      case Kind::kGauge:
        snapshot_.gauges[t.slot].value = t.gauge->Value();
        break;
      case Kind::kCounter:
        snapshot_.counters[t.slot].value = t.counter->Value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = *t.histogram;
        HistogramSample& s = snapshot_.histograms[t.slot];
        s.count = h.TotalCount();
        s.sum = h.Sum();
        s.min = h.Min();
        s.max = h.Max();
        s.p50 = h.Quantile(0.5).ValueOr(0.0);
        s.p99 = h.Quantile(0.99).ValueOr(0.0);
        size_t n = h.NumBuckets();
        if (s.bounds.size() != n) {
          s.bounds.resize(n);
          s.buckets.resize(n);
          for (size_t i = 0; i < n; ++i) s.bounds[i] = h.UpperBound(i);
        }
        for (size_t i = 0; i < n; ++i) s.buckets[i] = h.BucketCount(i);
        break;
      }
    }
  }
}

}  // namespace flower::obs
