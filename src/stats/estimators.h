// Parameter estimators for stage-duration distributions (§4.2.2).
//
// Two kinds:
//  * Order-statistics estimators (Cedar): fit the first r arrival times out
//    of k against expected order-statistic scores, removing early-finisher
//    bias. Log-normal and normal use the pairwise location-scale method from
//    the paper; exponential uses normalized spacings.
//  * Empirical estimators (the baseline Figure 9/10 compares against): plain
//    sample moments of the observed arrivals, which are biased low because
//    only the fastest r of k processes have reported.

#ifndef CEDAR_SRC_STATS_ESTIMATORS_H_
#define CEDAR_SRC_STATS_ESTIMATORS_H_

#include <optional>
#include <vector>

#include "src/stats/distribution.h"
#include "src/stats/order_statistics.h"

namespace cedar {

// A fitted location/scale pair. For log-normal these are (mu, sigma) of the
// log; for normal, (mean, sd); for exponential, (1/lambda, 1/lambda).
struct LocationScaleEstimate {
  double location = 0.0;
  double scale = 0.0;

  // Number of (time, score) pairs that contributed.
  int pairs_used = 0;
};

// Cedar's estimator for log-normal X: given the first |r| = times.size()
// order-statistic observations (ascending arrival times t_1 <= ... <= t_r)
// out of |k| processes, solves ln t_i = mu + sigma * m_{i,k} for each
// adjacent pair and averages the per-pair estimates (§4.2.2). Requires
// r >= 2 and strictly positive times; returns nullopt if fewer than one
// usable pair remains (e.g. all adjacent scores equal). Estimated sigma is
// clamped to be nonnegative.
std::optional<LocationScaleEstimate> EstimateLogNormalOrderStats(
    const std::vector<double>& times, int k,
    OrderScoreMethod method = OrderScoreMethod::kExact);

// Same pairwise method without the logarithm: fits Normal(mean, sd).
std::optional<LocationScaleEstimate> EstimateNormalOrderStats(
    const std::vector<double>& times, int k,
    OrderScoreMethod method = OrderScoreMethod::kExact);

// Exponential-rate estimator from the first r of k order statistics, using
// the Sukhatme–Rényi normalized spacings: D_i = (k - i + 1)(t_i - t_{i-1})
// are i.i.d. Exp(lambda), so lambda_hat = r / sum(D_i). Requires r >= 1.
// Returns the estimate as LocationScaleEstimate{1/lambda, 1/lambda}.
std::optional<LocationScaleEstimate> EstimateExponentialOrderStats(
    const std::vector<double>& times, int k);

// Biased baseline: sample mean / sd of ln(times) (log-normal) or of times
// (normal). Requires >= 2 samples; sd uses the n-1 denominator.
std::optional<LocationScaleEstimate> EstimateLogNormalEmpirical(const std::vector<double>& times);
std::optional<LocationScaleEstimate> EstimateNormalEmpirical(const std::vector<double>& times);

// Convenience dispatcher used by the online learner: order-statistics fit of
// |family| (kLogNormal, kNormal, or kExponential). Other families fall back
// to log-normal, matching the paper's observation that log-normal fits all
// production traces. Both dispatchers return nullopt for a fit with a
// non-finite location or scale.
std::optional<DistributionSpec> FitSpecFromOrderStats(
    DistributionFamily family, const std::vector<double>& times, int k,
    OrderScoreMethod method = OrderScoreMethod::kExact);

// Dispatcher for the biased empirical baseline.
std::optional<DistributionSpec> FitSpecEmpirical(DistributionFamily family,
                                                 const std::vector<double>& times);

}  // namespace cedar

#endif  // CEDAR_SRC_STATS_ESTIMATORS_H_
