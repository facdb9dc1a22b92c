// FitDistribution (Pseudocode 1, §4.2): per-query online learning of the
// bottom-stage duration distribution from arrival times at one aggregator.
//
// The distribution *type* is chosen offline (§4.2.1, see
// src/stats/fitting.h); this class learns its *parameters* online. As each
// of the k child outputs arrives, the arrival time is recorded; the current
// fit treats the i-th arrival as a draw from the i-th order statistic of k
// samples: it is FitSpecFromOrderStats (src/stats/estimators.h) of the
// arrivals so far, kept as running sums by an OrderStatsAccumulator, so an
// arrival and a fit each cost O(1).
// Setting |use_empirical_estimates| switches to the biased sample-moments
// baseline (the ablation of Figure 10).

#ifndef CEDAR_SRC_CORE_ONLINE_LEARNER_H_
#define CEDAR_SRC_CORE_ONLINE_LEARNER_H_

#include <optional>
#include <variant>
#include <vector>

#include "src/stats/distribution.h"
#include "src/stats/estimators.h"

namespace cedar {

struct OnlineLearnerOptions {
  // Distribution family to fit (the offline type decision): log-normal,
  // normal or exponential.
  DistributionFamily family = DistributionFamily::kLogNormal;

  // Minimum number of arrivals before a fit is produced. Two suffice
  // mathematically, but a 2-point fit is extremely noisy and can drive the
  // optimizer to send almost immediately; the paper's error curves
  // (Figure 9) show estimates stabilize around 10 arrivals, which is the
  // default here. Tests and the estimation-error bench set it lower.
  int min_samples = 10;

  // Figure-10 ablation: ignore order statistics and fit plain sample
  // moments of the (biased) early arrivals.
  bool use_empirical_estimates = false;
};

class OnlineLearner {
 public:
  // |fanout| is k, the total number of children whose order statistics the
  // arrivals represent.
  OnlineLearner(int fanout, OnlineLearnerOptions options = {});

  // Records the next arrival. Times must be non-decreasing (they are
  // arrival times at one aggregator).
  void Observe(double arrival_time);

  // Number of arrivals observed so far.
  int num_observations() const { return fit_.count(); }

  // Current parameter fit, or nullopt if fewer than min_samples arrivals
  // (or the estimator degenerated).
  std::optional<DistributionSpec> CurrentFit() const;

 private:
  int fanout_;
  OnlineLearnerOptions options_;
  OrderStatsAccumulator fit_;
  std::vector<double> arrivals_;  // kept only for use_empirical_estimates
};

// Dies, naming |family|, unless the learner can fit it: log-normal, normal
// or exponential. The OnlineLearner and CedarPolicy constructors call it.
void CheckLearnerFamily(DistributionFamily family);

// A fit of one of the learner's families, held by value, so a policy that
// keeps a fit between calls allocates nothing.
using LearnedDistribution =
    std::variant<LogNormalDistribution, NormalDistribution, ExponentialDistribution>;

// The distribution |spec| describes; dies unless CheckLearnerFamily accepts
// its family.
LearnedDistribution MakeLearnedDistribution(const DistributionSpec& spec);

inline const Distribution& AsDistribution(const LearnedDistribution& fit) {
  return std::visit([](const auto& dist) -> const Distribution& { return dist; }, fit);
}

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_ONLINE_LEARNER_H_
