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

// Cedar's fit of |family| from the first r = times.size() order statistics
// (ascending arrival times t_1 <= ... <= t_r; unsorted input is fatal) out
// of |k| processes.
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
