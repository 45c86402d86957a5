#include "obs/health/attribution.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace flower::obs::health {

namespace {

/// How far back in sim-time decisions and anomalies are considered.
constexpr double kDecisionWindowSec = 600.0;
constexpr double kAnomalyWindowSec = 600.0;
/// clamped_u below raw_u by more than this counts as saturation
/// (the loop asked for more capacity than limits/share allowed).
constexpr double kSaturationEps = 0.5;
// Symptom weights. Decision-record symptoms are scored as the
// fraction of the layer's recent records showing the symptom, times
// the weight — so a layer with a faster control period is not
// over-counted just for logging more rows.
constexpr double kWSaturation = 3.0;
constexpr double kWBreakerOpen = 2.5;
constexpr double kWActuationFailed = 2.0;
constexpr double kWSensorMiss = 1.0;
constexpr double kWStaleSensor = 0.5;
constexpr double kWFaultInterference = 1.5;
constexpr double kWAnomaly = 2.0;    ///< Per anomalous stream-tick, capped.
constexpr double kAnomalyCap = 4.0;  ///< Max total anomaly contribution.
/// Credit |r| * w for each significant edge feeding a distressed
/// layer: rising upstream load explains why the response layer is
/// the bottleneck (Eq. 1/2 propagation).
constexpr double kWDependency = 2.0;

std::string FormatFraction(double frac) {
  std::ostringstream os;
  os.precision(3);
  os << frac;
  return os.str();
}

/// Per-layer tallies over the recent decision-record window.
struct Symptoms {
  size_t records = 0;
  size_t saturated = 0;
  size_t breaker_open = 0;
  size_t actuation_failed = 0;
  size_t sensor_miss = 0;
  size_t stale = 0;
  size_t faulted = 0;
};

}  // namespace

HealthReport RootCauseAttributor::Attribute(
    SimTime now, const SloStatus& breached,
    const DecisionLog& decisions,
    const std::vector<AnomalyEvent>& anomalies) const {
  HealthReport report;
  report.time = now;
  report.slo = breached;

  // std::map keeps layers in name order, which makes tie-handling and
  // evidence ordering deterministic.
  std::map<std::string, Symptoms> symptoms;
  double cutoff = now - kDecisionWindowSec;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const ControlDecisionRecord& rec = decisions.at(i);
    if (rec.time < cutoff || rec.time > now) continue;
    Symptoms& s = symptoms[decisions.loop(rec).layer];
    s.records += 1;
    if (rec.outcome == StepOutcome::kActuated &&
        rec.raw_u - rec.clamped_u > kSaturationEps) {
      s.saturated += 1;
    }
    switch (rec.outcome) {
      case StepOutcome::kBreakerOpen:
        s.breaker_open += 1;
        break;
      case StepOutcome::kActuationFailed:
        s.actuation_failed += 1;
        break;
      case StepOutcome::kSensorMiss:
        s.sensor_miss += 1;
        break;
      default:
        break;
    }
    if (rec.stale_sensor) s.stale += 1;
    if (rec.fault_mask != 0) s.faulted += 1;
  }

  std::map<std::string, std::vector<const AnomalyEvent*>> layer_anomalies;
  double anomaly_cutoff = now - kAnomalyWindowSec;
  for (const AnomalyEvent& ev : anomalies) {
    if (ev.time < anomaly_cutoff || ev.time > now) continue;
    report.recent_anomalies.push_back(ev);
    if (!ev.layer.empty()) layer_anomalies[ev.layer].push_back(&ev);
  }

  // Union of layers with any signal at all; edges add their endpoints
  // so a silent-but-implicated layer still appears in the ranking.
  std::map<std::string, LayerAttribution> scores;
  for (const auto& [layer, s] : symptoms) scores[layer].layer = layer;
  for (const auto& [layer, evs] : layer_anomalies) {
    scores[layer].layer = layer;
  }
  for (const DependencyEdge& e : edges_) {
    if (!e.significant) continue;
    scores[e.predictor_layer].layer = e.predictor_layer;
    scores[e.response_layer].layer = e.response_layer;
  }

  for (auto& [layer, attr] : scores) {
    auto it = symptoms.find(layer);
    if (it != symptoms.end() && it->second.records > 0) {
      const Symptoms& s = it->second;
      double n = static_cast<double>(s.records);
      auto add = [&](size_t count, double weight, const char* kind,
                     const char* what) {
        if (count == 0) return;
        double frac = static_cast<double>(count) / n;
        attr.score += frac * weight;
        attr.evidence.push_back(
            {kind,
             std::string(what) + " in " + FormatFraction(frac) +
                 " of recent control steps",
             frac * weight});
      };
      add(s.saturated, kWSaturation, "saturation",
          "actuation clamped below controller demand");
      add(s.breaker_open, kWBreakerOpen, "breaker_open",
          "circuit breaker open");
      add(s.actuation_failed, kWActuationFailed, "actuation_failed",
          "actuation attempts failed");
      add(s.sensor_miss, kWSensorMiss, "sensor_miss",
          "control steps skipped on missing measurements");
      add(s.stale, kWStaleSensor, "stale_sensor",
          "control steps ran on held last-good values");
      add(s.faulted, kWFaultInterference, "fault_interference",
          "injected-fault interference stamped");
    }

    auto an = layer_anomalies.find(layer);
    if (an != layer_anomalies.end() && !an->second.empty()) {
      double contribution = std::min(
          kAnomalyCap, kWAnomaly * static_cast<double>(an->second.size()));
      attr.score += contribution;
      const AnomalyEvent* top = an->second.front();
      for (const AnomalyEvent* ev : an->second) {
        if (ev->score > top->score) top = ev;
      }
      std::ostringstream detail;
      detail << an->second.size() << " detector events, strongest "
             << AnomalyKindToString(top->kind) << " on " << top->stream
             << " (score " << FormatFraction(top->score) << ")";
      attr.evidence.push_back({"anomaly", detail.str(), contribution});
    }
  }

  // Dependency propagation (Eq. 1/2): a significant edge P -> R says
  // R's load is driven by P. When R is already showing distress — or
  // is the breached SLO's own layer — the edge is the causal story for
  // *why* R is the bottleneck (upstream demand outgrew R's capacity),
  // so R gets the credit, scaled by |r|.
  for (const DependencyEdge& e : edges_) {
    if (!e.significant) continue;
    auto it = scores.find(e.response_layer);
    if (it == scores.end()) continue;
    bool distressed = it->second.score > 0.0;
    bool slo_layer = !breached.layer.empty() && breached.layer == e.response_layer;
    if (!distressed && !slo_layer) continue;
    double w = kWDependency * std::abs(e.correlation);
    it->second.score += w;
    std::ostringstream detail;
    detail << "Eq. 1 edge: " << e.response_metric << " = "
           << e.slope << " * " << e.predictor_metric << " (r="
           << FormatFraction(e.correlation)
           << ") — load driven by " << e.predictor_layer;
    it->second.evidence.push_back({"dependency", detail.str(), w});
  }

  report.ranking.reserve(scores.size());
  for (auto& [layer, attr] : scores) {
    // Evidence strongest-first within a layer.
    std::stable_sort(attr.evidence.begin(), attr.evidence.end(),
                     [](const AttributionEvidence& a,
                        const AttributionEvidence& b) {
                       return a.weight > b.weight;
                     });
    report.ranking.push_back(std::move(attr));
  }

  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [](const LayerAttribution& a, const LayerAttribution& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.layer < b.layer;
                   });

  std::ostringstream summary;
  summary << "SLO " << breached.id << " breached (burn fast "
          << FormatFraction(breached.burn_fast) << ", slow "
          << FormatFraction(breached.burn_slow) << ")";
  if (!report.ranking.empty() && report.ranking.front().score > 0.0) {
    const LayerAttribution& top = report.ranking.front();
    summary << "; top attribution: " << top.layer << " (score "
            << FormatFraction(top.score) << ")";
    if (!top.evidence.empty()) {
      summary << " — " << top.evidence.front().detail;
    }
  } else {
    summary << "; no layer implicated by recent telemetry";
  }
  report.summary = summary.str();
  return report;
}

}  // namespace flower::obs::health
