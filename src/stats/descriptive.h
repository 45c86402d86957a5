#ifndef FLOWER_STATS_DESCRIPTIVE_H_
#define FLOWER_STATS_DESCRIPTIVE_H_

#include <vector>

#include "common/result.h"

namespace flower::stats {

/// Summary statistics of a sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< Unbiased (n-1 denominator); 0 when n < 2.
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Computes count/mean/variance/stddev/min/max/sum in one pass
/// (Welford's algorithm for numerical stability). Empty input yields a
/// zeroed Summary with count == 0.
Summary Summarize(const std::vector<double>& xs);

double Mean(const std::vector<double>& xs);
/// Unbiased sample variance; 0 when fewer than two samples.
double Variance(const std::vector<double>& xs);
double StdDev(const std::vector<double>& xs);

/// Root-mean-square error between two equally sized vectors.
Result<double> Rmse(const std::vector<double>& a,
                    const std::vector<double>& b);

/// Mean absolute error between two equally sized vectors.
Result<double> MeanAbsoluteError(const std::vector<double>& a,
                                 const std::vector<double>& b);

}  // namespace flower::stats

#endif  // FLOWER_STATS_DESCRIPTIVE_H_
