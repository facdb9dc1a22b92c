// Offline distribution-type fitting from percentile values (§4.2.1).
//
// The paper periodically fits percentile values of completed queries with the
// rriskDistributions R package to choose the distribution *type*; parameters
// are then learned online per query. This module reproduces that step: given
// (percentile, value) pairs, each candidate family is fitted by least squares
// in a linearizing transform of its quantile function, and families are
// ranked by relative RMS error of the reproduced percentile values.

#ifndef CEDAR_SRC_STATS_FITTING_H_
#define CEDAR_SRC_STATS_FITTING_H_

#include <string>
#include <vector>

#include "src/stats/distribution.h"

namespace cedar {

// One (p, value) observation: the p-quantile of the data is |value|.
struct PercentilePoint {
  double p = 0.0;      // in (0, 1)
  double value = 0.0;  // observed quantile
};

// A fitted candidate.
struct DistributionFit {
  DistributionSpec spec;
  // Relative RMS error across the input percentiles:
  // sqrt(mean(((fitted_quantile - value) / value)^2)).
  double relative_rms_error = 0.0;
  // Worst single-percentile relative error.
  double max_relative_error = 0.0;
};

// Fits every candidate family (log-normal, normal, exponential, Pareto,
// Weibull, uniform) to the percentile points and returns the fits sorted by
// ascending relative RMS error. Families whose constraints are violated by
// the data (e.g. nonpositive values for log-normal) are omitted. Requires
// >= 2 points with p in (0,1) and distinct values.
std::vector<DistributionFit> FitPercentiles(const std::vector<PercentilePoint>& points);

// Fits the {1,5,10,25,50,75,90,95,99}th percentiles of raw |samples|
// (>= 2 of them) with FitPercentiles.
std::vector<DistributionFit> FitSamples(std::vector<double> samples);

// Kolmogorov-Smirnov statistic of |samples| against |dist|:
// sup_x |ECDF(x) - CDF(x)|. Used as the fit-quality check of the offline
// type-fitting step (and by tests to validate the synthetic workloads).
double KolmogorovSmirnovStatistic(std::vector<double> samples, const Distribution& dist);

}  // namespace cedar

#endif  // CEDAR_SRC_STATS_FITTING_H_
