// Order-statistic scores for the Cedar estimator (§4.2.2 of the paper).
//
// Given k i.i.d. draws from a distribution, the i-th order statistic is the
// i-th smallest. Cedar's insight is that the i-th *arrival* at an aggregator
// is a draw from the i-th order statistic of the k process durations — not
// from the duration distribution itself — and fitting against the expected
// order-statistic scores removes the bias of only observing early finishers.
//
// For location-scale families (normal; log-normal after taking logs) the
// expected i-th order statistic is mu + sigma * m_{i,k}, where m_{i,k} is the
// expected i-th order statistic of the *standard* distribution. This module
// computes the standard-normal scores m_{i,k} by numerical integration of
//
//   E[Z_(i)] = k * C(k-1, i-1) * Integral z phi(z) Phi(z)^{i-1} (1 - Phi(z))^{k-i} dz
//
// (composite Simpson over the density's peak; accurate to ~1e-9), and
// cross-checks them by Monte-Carlo simulation.
//
// Tables are cached per k behind a mutex and never freed, so a caller may
// fetch a table once (the online learner does, at construction) and read it
// without a lock for the rest of the program.

#ifndef CEDAR_SRC_STATS_ORDER_STATISTICS_H_
#define CEDAR_SRC_STATS_ORDER_STATISTICS_H_

#include <cstdint>
#include <vector>

namespace cedar {

// Exact (numerically integrated) expected i-th standard-normal order
// statistic out of k. 1 <= i <= k.
double ExactNormalScore(int i, int k);

// Cached table of all k standard-normal scores for a sample size.
class NormalOrderScoreTable {
 public:
  // Returns the shared table for |k| (computing and caching on first use).
  // The returned reference lives for the program duration.
  // Concurrent first calls for one k all return the same table.
  static const std::vector<double>& Get(int k);
};

// Monte-Carlo estimate of the expected i-th order statistic of |k| standard
// normal draws, using |trials| simulated samples. Test / cross-check utility
// (the paper notes the scores "can be computed quite accurately using a
// simple simulation").
std::vector<double> MonteCarloNormalScores(int k, int trials, uint64_t seed);

}  // namespace cedar

#endif  // CEDAR_SRC_STATS_ORDER_STATISTICS_H_
