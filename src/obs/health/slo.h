#ifndef FLOWER_OBS_HEALTH_SLO_H_
#define FLOWER_OBS_HEALTH_SLO_H_

#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_series.h"
#include "obs/metrics_registry.h"

namespace flower::obs::health {

/// How an SLO's service-level indicator is read from a registry
/// snapshot. All four forms reduce each evaluation tick to one
/// (bad, total) pair, so the error-budget math downstream is uniform.
enum class SliKind {
  /// Time-based: the tick is bad when the gauge exceeds `threshold`
  /// (e.g. p99-style utilization above the alarm line). total = 1.
  kGaugeBelow,
  /// Time-based: bad when the gauge is *under* `threshold` (headroom
  /// objectives, e.g. CPU idle or free capacity floors). total = 1.
  kGaugeAbove,
  /// Event-based: bad = delta of the `metric` counter, total = delta of
  /// the `total` counter since the previous tick (e.g. throttled writes
  /// over attempted writes).
  kCounterRatio,
  /// Event-based over a histogram delta: bad = events recorded since
  /// the previous tick that landed in buckets whose upper bound exceeds
  /// `threshold` (e.g. "ingest latency <= 250 ms").
  kHistogramBelow,
};

const char* SliKindToString(SliKind kind);

/// Addresses one instrument in a MetricsSnapshot. Labels are
/// canonicalized (sorted by key) exactly like the registry does, so a
/// selector matches regardless of the order the caller listed labels.
struct MetricSelector {
  std::string name;
  LabelSet labels;

  std::string ToString() const;
};

/// One service-level objective, per-layer or flow-wide, with the
/// Google-SRE multi-window burn-rate alert shape: the alert fires when
/// the burn rate over BOTH the fast window (default 5 sim-minutes) and
/// the slow window (default 1 sim-hour) is at or above
/// `burn_alert_threshold`, and clears when the fast-window burn drops
/// back under it. Burn rate = (bad fraction in window) / (1 − objective);
/// a burn of 1.0 consumes the budget exactly at the allowed pace.
struct SloSpec {
  std::string id;     ///< Unique name, e.g. "flow/write-availability".
  std::string layer;  ///< Layer scope ("ingestion", ...); "" = flow-wide.
  SliKind kind = SliKind::kGaugeBelow;
  MetricSelector metric;  ///< Gauge / histogram / bad-event counter.
  MetricSelector total;   ///< kCounterRatio only: the total counter.
  double threshold = 0.0; ///< Gauge bound / histogram latency bound.
  /// Target good fraction in (0, 1), e.g. 0.99 for a 99% objective.
  double objective = 0.99;
  double fast_window_sec = 300.0;
  double slow_window_sec = 3600.0;
  /// SRE page-worthy fast burn (5m/1h at 14.4 exhausts a 30-day budget
  /// in ~2 days; here windows are sim-time and the default is kept).
  double burn_alert_threshold = 14.4;
  /// Error budget accounting horizon.
  double budget_window_sec = 86400.0;
};

/// Point-in-time evaluation state of one SLO.
struct SloStatus {
  std::string id;
  std::string layer;
  SimTime time = 0.0;          ///< Last evaluation tick.
  double good_fraction = 1.0;  ///< Over the fast window.
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  /// Fraction of the error budget consumed over the budget window
  /// (>= 1 means the budget is spent).
  double budget_consumed = 0.0;
  bool breached = false;       ///< Multi-window burn alert active.
  SimTime breach_since = -1.0; ///< Start of the current breach; -1 idle.
  uint64_t alerts_fired = 0;   ///< Idle -> breached transitions.
  uint64_t evaluations = 0;
};

/// Incremental multi-window error-budget tracker for one SloSpec.
/// `Update` is called once per evaluation tick with the current
/// registry snapshot; counter/histogram forms difference against the
/// previous tick internally, so the tracker never rescans history.
/// Everything is sim-time driven — no wall clock — so a given snapshot
/// sequence reproduces the identical status trajectory.
class SloTracker {
 public:
  /// `eval_period_sec` is the tick spacing the windows are sized by.
  SloTracker(SloSpec spec, double eval_period_sec);

  /// Evaluates one tick. Missing instruments contribute no events (the
  /// tick is neither good nor bad), so an SLO over a not-yet-registered
  /// instrument stays at burn 0 instead of erroring.
  void Update(SimTime now, const MetricsSnapshot& snapshot);

  const SloSpec& spec() const { return spec_; }
  const SloStatus& status() const { return status_; }

 private:
  /// Fixed-capacity window of (bad, total) tick pairs with O(1) running
  /// sums (the SLO analogue of stats::RollingWindow, which carries one
  /// value per slot where this needs the pair).
  class RatioWindow {
   public:
    explicit RatioWindow(size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}
    void Add(double bad, double total);
    double bad_fraction() const {
      return total_sum_ <= 0.0 ? 0.0 : bad_sum_ / total_sum_;
    }
    double bad_sum() const { return bad_sum_; }
    double total_sum() const { return total_sum_; }

   private:
    size_t capacity_;
    std::deque<std::pair<double, double>> ring_;
    double bad_sum_ = 0.0;
    double total_sum_ = 0.0;
  };

  /// The (bad, total) contribution of this tick, differenced against
  /// the previous tick's counter/histogram readings.
  std::pair<double, double> Measure(const MetricsSnapshot& snapshot);

  SloSpec spec_;
  SloStatus status_;
  RatioWindow fast_;
  RatioWindow slow_;
  RatioWindow budget_;
  /// Ticks before alerting can start (one full fast window).
  uint64_t warmup_ticks_ = 1;
  // Previous-tick readings for the delta forms.
  bool has_baseline_ = false;
  double last_bad_counter_ = 0.0;
  double last_total_counter_ = 0.0;
  std::vector<uint64_t> last_buckets_;
};

/// Validates a spec (non-empty id, objective in (0,1), finite, positive
/// and ordered windows, finite threshold, positive finite burn
/// threshold, selector present for the kind). NaN fails every check.
Status ValidateSloSpec(const SloSpec& spec);

/// Finds instruments in a snapshot by canonicalized (name, labels).
/// Return nullptr when absent.
const GaugeSample* FindGauge(const MetricsSnapshot& snapshot,
                             const MetricSelector& selector);
const CounterSample* FindCounter(const MetricsSnapshot& snapshot,
                                 const MetricSelector& selector);
const HistogramSample* FindHistogram(const MetricsSnapshot& snapshot,
                                     const MetricSelector& selector);

}  // namespace flower::obs::health

#endif  // FLOWER_OBS_HEALTH_SLO_H_
