#include "obs/health/slo.h"

#include <algorithm>
#include <cmath>

namespace flower::obs::health {

namespace {

LabelSet NormalizeLabels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Window capacity in ticks; a window shorter than one tick still holds
/// one sample so burn math stays defined.
size_t TicksFor(double window_sec, double eval_period_sec) {
  if (eval_period_sec <= 0.0) return 1;
  double ticks = std::ceil(window_sec / eval_period_sec);
  if (ticks < 1.0) return 1;
  return static_cast<size_t>(ticks);
}

}  // namespace

const char* SliKindToString(SliKind kind) {
  switch (kind) {
    case SliKind::kGaugeBelow:
      return "gauge_below";
    case SliKind::kGaugeAbove:
      return "gauge_above";
    case SliKind::kCounterRatio:
      return "counter_ratio";
    case SliKind::kHistogramBelow:
      return "histogram_below";
  }
  return "unknown";
}

std::string MetricSelector::ToString() const {
  std::string out = name;
  if (!labels.empty()) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ',';
      first = false;
      out += k;
      out += '=';
      out += v;
    }
    out += '}';
  }
  return out;
}

const GaugeSample* FindGauge(const MetricsSnapshot& snapshot,
                             const MetricSelector& selector) {
  LabelSet norm = NormalizeLabels(selector.labels);
  for (const auto& g : snapshot.gauges) {
    if (g.name == selector.name && g.labels == norm) return &g;
  }
  return nullptr;
}

const CounterSample* FindCounter(const MetricsSnapshot& snapshot,
                                 const MetricSelector& selector) {
  LabelSet norm = NormalizeLabels(selector.labels);
  for (const auto& c : snapshot.counters) {
    if (c.name == selector.name && c.labels == norm) return &c;
  }
  return nullptr;
}

const HistogramSample* FindHistogram(const MetricsSnapshot& snapshot,
                                     const MetricSelector& selector) {
  LabelSet norm = NormalizeLabels(selector.labels);
  for (const auto& h : snapshot.histograms) {
    if (h.name == selector.name && h.labels == norm) return &h;
  }
  return nullptr;
}

Status ValidateSloSpec(const SloSpec& spec) {
  if (spec.id.empty()) {
    return Status::InvalidArgument("SloSpec: id must be non-empty");
  }
  if (spec.metric.name.empty()) {
    return Status::InvalidArgument("SloSpec " + spec.id +
                                   ": metric selector must name an instrument");
  }
  if (spec.kind == SliKind::kCounterRatio && spec.total.name.empty()) {
    return Status::InvalidArgument(
        "SloSpec " + spec.id + ": counter_ratio needs a total counter");
  }
  // Every check is written so that NaN fails it: a NaN window would
  // reach TicksFor's cast to size_t, and a NaN threshold would make
  // every tick silently good.
  if (!(spec.objective > 0.0 && spec.objective < 1.0)) {
    return Status::InvalidArgument("SloSpec " + spec.id +
                                   ": objective must be in (0, 1)");
  }
  if (!(spec.fast_window_sec > 0.0 &&
        spec.slow_window_sec >= spec.fast_window_sec &&
        spec.budget_window_sec >= spec.slow_window_sec &&
        std::isfinite(spec.budget_window_sec))) {
    return Status::InvalidArgument(
        "SloSpec " + spec.id +
        ": windows must be finite and satisfy 0 < fast <= slow <= budget");
  }
  if (!std::isfinite(spec.threshold)) {
    return Status::InvalidArgument("SloSpec " + spec.id +
                                   ": threshold must be finite");
  }
  if (!(spec.burn_alert_threshold > 0.0 &&
        std::isfinite(spec.burn_alert_threshold))) {
    return Status::InvalidArgument(
        "SloSpec " + spec.id +
        ": burn_alert_threshold must be positive and finite");
  }
  return Status::OK();
}

void SloTracker::RatioWindow::Add(double bad, double total) {
  ring_.emplace_back(bad, total);
  bad_sum_ += bad;
  total_sum_ += total;
  if (ring_.size() > capacity_) {
    bad_sum_ -= ring_.front().first;
    total_sum_ -= ring_.front().second;
    ring_.pop_front();
  }
  // The sums are maintained incrementally; clamp tiny negative residue
  // from float cancellation so bad_fraction stays in [0, 1].
  if (bad_sum_ < 0.0) bad_sum_ = 0.0;
  if (total_sum_ < 0.0) total_sum_ = 0.0;
}

SloTracker::SloTracker(SloSpec spec, double eval_period_sec)
    : spec_(std::move(spec)),
      fast_(TicksFor(spec_.fast_window_sec, eval_period_sec)),
      slow_(TicksFor(spec_.slow_window_sec, eval_period_sec)),
      budget_(TicksFor(spec_.budget_window_sec, eval_period_sec)),
      warmup_ticks_(TicksFor(spec_.fast_window_sec, eval_period_sec)) {
  status_.id = spec_.id;
  status_.layer = spec_.layer;
}

std::pair<double, double> SloTracker::Measure(
    const MetricsSnapshot& snapshot) {
  switch (spec_.kind) {
    case SliKind::kGaugeBelow:
    case SliKind::kGaugeAbove: {
      const GaugeSample* g = FindGauge(snapshot, spec_.metric);
      if (g == nullptr) return {0.0, 0.0};
      bool bad = spec_.kind == SliKind::kGaugeBelow
                     ? g->value > spec_.threshold
                     : g->value < spec_.threshold;
      return {bad ? 1.0 : 0.0, 1.0};
    }
    case SliKind::kCounterRatio: {
      const CounterSample* bad = FindCounter(snapshot, spec_.metric);
      const CounterSample* total = FindCounter(snapshot, spec_.total);
      if (bad == nullptr || total == nullptr) return {0.0, 0.0};
      double bad_now = static_cast<double>(bad->value);
      double total_now = static_cast<double>(total->value);
      if (!has_baseline_) {
        // First sighting sets the baseline; pre-existing counts are
        // history the tracker was not running for.
        has_baseline_ = true;
        last_bad_counter_ = bad_now;
        last_total_counter_ = total_now;
        return {0.0, 0.0};
      }
      double d_bad = std::max(0.0, bad_now - last_bad_counter_);
      double d_total = std::max(0.0, total_now - last_total_counter_);
      last_bad_counter_ = bad_now;
      last_total_counter_ = total_now;
      // A counter pair can report bad > total transiently if the two
      // increments race the snapshot; never claim more bad than total.
      return {std::min(d_bad, d_total), d_total};
    }
    case SliKind::kHistogramBelow: {
      const HistogramSample* h = FindHistogram(snapshot, spec_.metric);
      if (h == nullptr) return {0.0, 0.0};
      if (!has_baseline_ || last_buckets_.size() != h->buckets.size()) {
        has_baseline_ = true;
        last_buckets_ = h->buckets;
        return {0.0, 0.0};
      }
      double d_total = 0.0;
      double d_good = 0.0;
      for (size_t i = 0; i < h->buckets.size(); ++i) {
        uint64_t prev = last_buckets_[i];
        double d = h->buckets[i] >= prev
                       ? static_cast<double>(h->buckets[i] - prev)
                       : 0.0;
        d_total += d;
        // A bucket is good only when every value it can hold is within
        // the threshold (conservative for the straddling bucket).
        if (h->bounds[i] <= spec_.threshold) d_good += d;
      }
      last_buckets_ = h->buckets;
      return {d_total - d_good, d_total};
    }
  }
  return {0.0, 0.0};
}

void SloTracker::Update(SimTime now, const MetricsSnapshot& snapshot) {
  auto [bad, total] = Measure(snapshot);
  fast_.Add(bad, total);
  slow_.Add(bad, total);
  budget_.Add(bad, total);

  double budget_fraction = 1.0 - spec_.objective;
  status_.time = now;
  status_.evaluations += 1;
  status_.good_fraction = 1.0 - fast_.bad_fraction();
  status_.burn_fast = fast_.bad_fraction() / budget_fraction;
  status_.burn_slow = slow_.bad_fraction() / budget_fraction;
  // Budget consumed = bad events so far relative to the events the
  // objective allows over the budget window's observed traffic.
  double allowed = budget_.total_sum() * budget_fraction;
  status_.budget_consumed =
      allowed <= 0.0 ? 0.0 : budget_.bad_sum() / allowed;

  // Multi-window rule: page only when the short window confirms the
  // burn is still happening AND the long window confirms it is not a
  // blip. Clearing needs only the fast window to recover, so alerts
  // stop promptly once the condition ends.
  bool fast_hot = status_.burn_fast >= spec_.burn_alert_threshold;
  bool slow_hot = status_.burn_slow >= spec_.burn_alert_threshold;
  // No alerting until the fast window has filled once: over a 1-2
  // sample history every startup transient reads as a max-burn breach
  // (cold-start alert noise, the multi-window analogue of alerting on
  // an empty error budget).
  bool warmed = status_.evaluations >= warmup_ticks_;
  if (!status_.breached && warmed && fast_hot && slow_hot) {
    status_.breached = true;
    status_.breach_since = now;
    status_.alerts_fired += 1;
  } else if (status_.breached && !fast_hot) {
    status_.breached = false;
    status_.breach_since = -1.0;
  }
}

}  // namespace flower::obs::health
