// Parameter estimators for stage-duration distributions (§4.2.2).
//
// Two fits, each of log-normal, normal or exponential; any other family is
// a fatal error that names it.
//  * FitSpecFromOrderStats (Cedar): fits the first r arrival times out of k
//    against expected order-statistic scores, removing early-finisher bias.
//    Log-normal and normal share the paper's pairwise location-scale fit
//    (log-normal on ln t); exponential uses normalized spacings.
//  * FitSpecEmpirical (the baseline Figure 9/10 compares against): plain
//    sample moments of the observed arrivals, which are biased low because
//    only the fastest r of k processes have reported.

#ifndef CEDAR_SRC_STATS_ESTIMATORS_H_
#define CEDAR_SRC_STATS_ESTIMATORS_H_

#include <optional>
#include <vector>

#include "src/stats/distribution.h"

namespace cedar {

// The running state of Cedar's fit over a growing prefix of ascending
// arrival times out of |k| processes. Add() folds in the next arrival and
// Fit() returns FitSpecFromOrderStats of the arrivals so far, bitwise: the
// per-pair (log-normal, normal) or per-spacing (exponential) terms are
// summed in the same left-to-right order. Both are O(1); the score table is
// fetched once, at construction, and read without a lock.
class OrderStatsAccumulator {
 public:
  // |family| must be log-normal, normal or exponential (else fatal, naming
  // it); |k| >= 1.
  OrderStatsAccumulator(DistributionFamily family, int k);

  // Folds in the next arrival: at most k of them, each >= the previous one
  // (else fatal). A log-normal arrival <= 0 leaves no fit from then on.
  void Add(double t);

  // Number of arrivals added so far.
  int count() const { return count_; }

  // The last arrival added; count() must be > 0.
  double last() const { return last_time_; }

  std::optional<DistributionSpec> Fit() const;

 private:
  DistributionFamily family_;
  int k_;
  const std::vector<double>* scores_ = nullptr;  // m_{i,k}; null for exponential
  int count_ = 0;
  double last_time_ = 0.0;   // t_r, or t_0 = 0 before the first arrival
  double last_value_ = 0.0;  // v_r: ln t_r for log-normal, t_r for normal
  bool invalid_ = false;     // a log-normal t <= 0 or a negative spacing
  // Log-normal and normal: the sums of the per-pair estimates.
  double location_sum_ = 0.0;
  double scale_sum_ = 0.0;
  int pairs_ = 0;
  // Exponential: the sum of the normalized spacings.
  double spacing_total_ = 0.0;
};

// Cedar's fit of |family| from the first r = times.size() order statistics
// (ascending arrival times t_1 <= ... <= t_r; unsorted input is fatal) out
// of |k| >= 1 processes, by an OrderStatsAccumulator.
//  * Log-normal / normal: solves v_i = mu + sigma * m_{i,k} (v = ln t for
//    log-normal, t for normal; m = exact standard-normal scores) for each
//    adjacent pair and averages the per-pair estimates. Needs r >= 2, and
//    t > 0 for log-normal; pairs with equal scores are skipped.
//  * Exponential: the Sukhatme–Rényi normalized spacings
//    D_i = (k - i + 1)(t_i - t_{i-1}), t_0 = 0, are i.i.d. Exp(lambda), so
//    lambda = r / sum(D_i). Needs r >= 1 and sum(D_i) > 0.
// Returns nullopt when r > k, a requirement above fails, or the fit is not
// finite. A zero scale (identical arrivals) is floored at 1e-9.
std::optional<DistributionSpec> FitSpecFromOrderStats(DistributionFamily family,
                                                      const std::vector<double>& times, int k);

// The biased baseline: sample mean and sd (n-1 denominator) of ln(times)
// for log-normal, of times for normal; exponential takes lambda = 1/mean.
// Needs >= 2 samples (and t > 0 for log-normal); otherwise, or for a
// non-finite fit, nullopt.
std::optional<DistributionSpec> FitSpecEmpirical(DistributionFamily family,
                                                 const std::vector<double>& times);

}  // namespace cedar

#endif  // CEDAR_SRC_STATS_ESTIMATORS_H_
