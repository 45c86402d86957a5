#include "core/dependency_analyzer.h"

#include <cmath>
#include <sstream>

namespace flower::core {

namespace {

/// Series are aligned by averaging into buckets of this width before
/// regression (the paper's Fig. 2 uses one-minute samples).
constexpr double kBucketSec = 60.0;
/// |r| at or above this marks the dependency significant.
constexpr double kMinAbsCorrelation = 0.7;
/// Minimum aligned samples required to attempt a fit.
constexpr size_t kMinSamples = 10;

}  // namespace

std::string Dependency::ToString() const {
  std::ostringstream os;
  os.precision(6);
  os << response.id.name << "(" << LayerToString(response.layer) << ") = "
     << fit.slope << " * " << predictor.id.name << "("
     << LayerToString(predictor.layer) << ") + " << fit.intercept
     << "  [r=" << fit.correlation << ", R2=" << fit.r_squared << ", n="
     << fit.n << (significant ? ", significant" : ", not significant")
     << "]";
  return os.str();
}

Result<Dependency> DependencyAnalyzer::Analyze(
    const cloudwatch::MetricStore& store, const LayerMetric& predictor,
    const LayerMetric& response, SimTime t0, SimTime t1) const {
  if (predictor.layer == response.layer) {
    return Status::InvalidArgument(
        "DependencyAnalyzer: Eq. 1 requires metrics from different layers");
  }
  FLOWER_ASSIGN_OR_RETURN(const TimeSeries* px,
                          store.GetSeries(predictor.id));
  FLOWER_ASSIGN_OR_RETURN(const TimeSeries* py, store.GetSeries(response.id));
  TimeSeries bx = px->Window(t0, t1).BucketMean(t0, kBucketSec);
  TimeSeries by = py->Window(t0, t1).BucketMean(t0, kBucketSec);

  // Join on bucket timestamps present in both series.
  std::vector<double> xs, ys;
  size_t i = 0, j = 0;
  while (i < bx.size() && j < by.size()) {
    double tx = bx[i].time, ty = by[j].time;
    if (std::fabs(tx - ty) < 1e-9) {
      xs.push_back(bx[i].value);
      ys.push_back(by[j].value);
      ++i;
      ++j;
    } else if (tx < ty) {
      ++i;
    } else {
      ++j;
    }
  }
  if (xs.size() < kMinSamples) {
    return Status::FailedPrecondition(
        "DependencyAnalyzer: only " + std::to_string(xs.size()) +
        " aligned samples (< " + std::to_string(kMinSamples) + ")");
  }
  FLOWER_ASSIGN_OR_RETURN(stats::SimpleFit fit, stats::FitSimple(xs, ys));
  Dependency dep;
  dep.predictor = predictor;
  dep.response = response;
  dep.fit = fit;
  dep.significant =
      std::fabs(fit.correlation) >= kMinAbsCorrelation;
  return dep;
}

std::vector<Dependency> DependencyAnalyzer::AnalyzeAll(
    const cloudwatch::MetricStore& store,
    const std::vector<LayerMetric>& metrics, SimTime t0, SimTime t1) const {
  std::vector<Dependency> out;
  for (size_t a = 0; a < metrics.size(); ++a) {
    for (size_t b = 0; b < metrics.size(); ++b) {
      if (a == b || metrics[a].layer == metrics[b].layer) continue;
      auto dep = Analyze(store, metrics[a], metrics[b], t0, t1);
      if (dep.ok()) out.push_back(*dep);
    }
  }
  return out;
}

std::vector<obs::health::DependencyEdge> ToHealthEdges(
    const std::vector<Dependency>& dependencies) {
  std::vector<obs::health::DependencyEdge> edges;
  edges.reserve(dependencies.size());
  for (const Dependency& d : dependencies) {
    obs::health::DependencyEdge e;
    e.predictor_layer = LayerToString(d.predictor.layer);
    e.response_layer = LayerToString(d.response.layer);
    e.predictor_metric = d.predictor.id.ToString();
    e.response_metric = d.response.id.ToString();
    e.slope = d.fit.slope;
    e.correlation = d.fit.correlation;
    e.r_squared = d.fit.r_squared;
    e.significant = d.significant;
    edges.push_back(std::move(e));
  }
  return edges;
}

}  // namespace flower::core
