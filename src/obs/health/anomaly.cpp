#include "obs/health/anomaly.h"

#include <algorithm>
#include <cmath>

namespace flower::obs::health {

namespace {

/// E|X - mu| = sigma * sqrt(2/pi) for a Gaussian, so sigma ≈ 1.2533 *
/// mean absolute deviation — the same consistency idea as the classic
/// 1.4826 * MAD, applied to the exponentially weighted abs-deviation.
constexpr double kMadToSigma = 1.2533141373155003;

// Tuning of every stream's detector pair, sized for
// one-sample-per-evaluation-tick streams (60 s cadence): warmup is
// eight ticks of history, the spike gate is ~5 robust sigmas, and the
// Page–Hinkley budget trips after a sustained ~2-sigma level shift in
// roughly 4 samples.
constexpr double kEwmaAlpha = 0.25;  ///< Location tracking speed.
constexpr double kScaleAlpha = 0.1;  ///< Robust scale (EW abs-deviation) speed.
constexpr double kZThreshold = 5.0;  ///< |z| above this flags a spike.
/// Samples buffered in a stats::RollingWindow to seed the EWMA
/// location/scale before any flagging starts.
constexpr size_t kWarmupSamples = 8;
/// Absolute floor on the scale estimate so constant streams do not
/// divide by zero (any change on a flat stream is then a spike).
constexpr double kMinScale = 1e-6;
constexpr double kPhDelta = 0.5;   ///< PH drift allowance, in robust sigmas.
constexpr double kPhLambda = 8.0;  ///< PH alarm threshold, in robust sigmas.

}  // namespace

const char* AnomalyKindToString(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kSpike:
      return "spike";
    case AnomalyKind::kLevelShift:
      return "level_shift";
  }
  return "unknown";
}

AnomalyDetector::AnomalyDetector() : seed_(kWarmupSamples) {}

double AnomalyDetector::scale() const {
  return std::max(kMinScale, kMadToSigma * abs_dev_);
}

AnomalyDetector::Sample AnomalyDetector::Update(double x) {
  Sample out;
  if (std::isnan(x)) return out;

  if (!warmed_up_) {
    seed_.Add(x);
    if (seed_.full()) {
      // Seed location from the window mean and the abs-deviation from
      // the window stddev (sigma -> mean-abs-dev is the inverse of the
      // consistency factor).
      mean_ = seed_.Mean();
      abs_dev_ = seed_.StdDev() / kMadToSigma;
      warmed_up_ = true;
    }
    return out;
  }

  double s = scale();
  double residual = x - mean_;
  out.z = residual / s;
  out.spike = std::abs(out.z) >= kZThreshold;

  // Two-sided Page–Hinkley on the winsorized residual: accumulate
  // drift beyond the allowance delta and alarm when the excursion from
  // the running extremum exceeds lambda. Clamping the input to 3 sigma
  // keeps a single wild sample — the spike detector's job — from
  // tripping the drift alarm on its own.
  double zc = std::clamp(out.z, -3.0, 3.0);
  ph_up_ += zc - kPhDelta;
  ph_up_min_ = std::min(ph_up_min_, ph_up_);
  ph_down_ += zc + kPhDelta;
  ph_down_max_ = std::max(ph_down_max_, ph_down_);
  double up_stat = ph_up_ - ph_up_min_;
  double down_stat = ph_down_max_ - ph_down_;
  out.ph_stat = std::max(up_stat, down_stat);
  if (out.ph_stat >= kPhLambda) {
    out.shift = true;
    // Restart the test at the new level: re-center the location on the
    // sample and zero the accumulators, otherwise the alarm latches
    // forever after one shift.
    mean_ = x;
    ph_up_ = ph_up_min_ = 0.0;
    ph_down_ = ph_down_max_ = 0.0;
  }

  // Winsorized state update: clamp the residual to 3 sigma so outliers
  // nudge the baseline instead of capturing it.
  double clamped = std::clamp(residual, -3.0 * s, 3.0 * s);
  if (!out.shift) {
    mean_ += kEwmaAlpha * clamped;
  }
  abs_dev_ += kScaleAlpha * (std::abs(clamped) - abs_dev_);
  return out;
}

Status AnomalyBank::Watch(Source source, MetricSelector selector,
                          std::string layer) {
  std::sort(selector.labels.begin(), selector.labels.end());
  for (const Stream& s : streams_) {
    if (s.source == source && s.selector.name == selector.name &&
        s.selector.labels == selector.labels) {
      return Status::InvalidArgument("AnomalyBank: duplicate watch for " +
                                     selector.ToString());
    }
  }
  Stream s{source,
           selector,
           selector.ToString(),
           std::move(layer),
           AnomalyDetector(),
           /*has_last_counter=*/false,
           /*last_counter=*/0.0,
           StreamState{}};
  s.state.stream = s.display;
  s.state.layer = s.layer;
  streams_.push_back(std::move(s));
  return Status::OK();
}

std::vector<AnomalyEvent> AnomalyBank::UpdateAll(
    SimTime now, const MetricsSnapshot& snapshot) {
  std::vector<AnomalyEvent> events;
  for (Stream& s : streams_) {
    double x = 0.0;
    switch (s.source) {
      case Source::kGauge: {
        const GaugeSample* g = FindGauge(snapshot, s.selector);
        if (g == nullptr) continue;
        x = g->value;
        break;
      }
      case Source::kCounterRate: {
        const CounterSample* c = FindCounter(snapshot, s.selector);
        if (c == nullptr) continue;
        double v = static_cast<double>(c->value);
        if (!s.has_last_counter) {
          s.has_last_counter = true;
          s.last_counter = v;
          continue;
        }
        x = std::max(0.0, v - s.last_counter);
        s.last_counter = v;
        break;
      }
    }
    AnomalyDetector::Sample sample = s.detector.Update(x);
    s.state.last_value = x;
    s.state.last_z = sample.z;
    s.state.anomalous = sample.spike || sample.shift;
    if (sample.spike) {
      events.push_back({now, s.display, s.layer, AnomalyKind::kSpike, x,
                        std::abs(sample.z)});
    }
    if (sample.shift) {
      events.push_back({now, s.display, s.layer, AnomalyKind::kLevelShift, x,
                        sample.ph_stat});
    }
  }
  return events;
}

std::vector<AnomalyBank::StreamState> AnomalyBank::States() const {
  std::vector<StreamState> out;
  out.reserve(streams_.size());
  for (const Stream& s : streams_) out.push_back(s.state);
  return out;
}

}  // namespace flower::obs::health
