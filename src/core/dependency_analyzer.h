#ifndef FLOWER_CORE_DEPENDENCY_ANALYZER_H_
#define FLOWER_CORE_DEPENDENCY_ANALYZER_H_

#include <string>
#include <vector>

#include "cloudwatch/metric_store.h"
#include "core/layer.h"
#include "obs/health/attribution.h"
#include "stats/linreg.h"

namespace flower::core {

/// A metric participating in dependency analysis, tagged with its layer.
struct LayerMetric {
  Layer layer;
  cloudwatch::MetricId id;
};

/// One detected cross-layer dependency: the paper's Eq. 1,
/// response = beta0 + beta1 * predictor + error.
struct Dependency {
  LayerMetric predictor;
  LayerMetric response;
  stats::SimpleFit fit;
  /// True when |Pearson r| >= 0.7, the analyzer's threshold (the analyzer
  /// also returns non-significant pairs so users can see what was
  /// ruled out — the paper notes e.g. no Kinesis↔DynamoDB write
  /// dependency for the click-stream flow).
  bool significant = false;

  /// Eq.-2-style rendering: "<response> = <b1> * <predictor> + <b0>".
  std::string ToString() const;
};

/// Workload dependency analysis (paper §3.1): applies linear regression
/// to pairs of resource metrics from *different* layers, quantifying
/// relationships such as Eq. 2 (Storm CPU vs Kinesis write volume).
/// Series are averaged into 60 s buckets before the fit (the paper's
/// Fig. 2 uses one-minute samples), a fit needs at least 10 aligned
/// samples, and |r| >= 0.7 marks a dependency significant.
class DependencyAnalyzer {
 public:
  /// Regresses `response` on `predictor` over window [t0, t1).
  /// Errors: unknown metric, too few aligned samples, degenerate data.
  Result<Dependency> Analyze(const cloudwatch::MetricStore& store,
                             const LayerMetric& predictor,
                             const LayerMetric& response, SimTime t0,
                             SimTime t1) const;

  /// Analyzes every ordered cross-layer pair among `metrics` (same-layer
  /// pairs are skipped, per Eq. 1's L1 != L2). Pairs that fail to fit
  /// (too few samples / degenerate) are silently omitted; the returned
  /// list contains both significant and non-significant fits.
  std::vector<Dependency> AnalyzeAll(const cloudwatch::MetricStore& store,
                                     const std::vector<LayerMetric>& metrics,
                                     SimTime t0, SimTime t1) const;
};

/// Converts analyzer results into the neutral edge form the
/// obs::health::RootCauseAttributor consumes (obs cannot include core,
/// so the conversion lives on the core side of the seam). Keeps every
/// edge, significant or not — the attributor ignores non-significant
/// ones but exporters may still want to show what was ruled out.
std::vector<obs::health::DependencyEdge> ToHealthEdges(
    const std::vector<Dependency>& dependencies);

}  // namespace flower::core

#endif  // FLOWER_CORE_DEPENDENCY_ANALYZER_H_
