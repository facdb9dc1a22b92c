#include "src/core/online_learner.h"

#include "src/common/logging.h"
#include "src/obs/profiler.h"
#include "src/stats/estimators.h"

namespace cedar {

void CheckLearnerFamily(DistributionFamily family) {
  CEDAR_CHECK(family == DistributionFamily::kLogNormal || family == DistributionFamily::kNormal ||
              family == DistributionFamily::kExponential)
      << "the online learner cannot fit family " << DistributionFamilyName(family)
      << " (want lognormal, normal or exponential)";
}

LearnedDistribution MakeLearnedDistribution(const DistributionSpec& spec) {
  CheckLearnerFamily(spec.family);
  switch (spec.family) {
    case DistributionFamily::kNormal:
      return NormalDistribution(spec.p1, spec.p2);
    case DistributionFamily::kExponential:
      return ExponentialDistribution(spec.p1);
    default:  // kLogNormal, the one family left after the check
      return LogNormalDistribution(spec.p1, spec.p2);
  }
}

namespace {

// The learner's own checks run before its accumulator is built, so a bad
// family dies with the learner's message.
OrderStatsAccumulator CheckedAccumulator(int fanout, const OnlineLearnerOptions& options) {
  CEDAR_CHECK_GE(fanout, 1);
  CEDAR_CHECK_GE(options.min_samples, 2) << "pairwise estimation needs >= 2 samples";
  CheckLearnerFamily(options.family);
  return OrderStatsAccumulator(options.family, fanout);
}

}  // namespace

OnlineLearner::OnlineLearner(int fanout, OnlineLearnerOptions options)
    : fanout_(fanout), options_(options), fit_(CheckedAccumulator(fanout, options)) {}

void OnlineLearner::Observe(double arrival_time) {
  CEDAR_CHECK_LT(num_observations(), fanout_) << "more arrivals than fanout";
  if (num_observations() > 0) {
    CEDAR_CHECK_GE(arrival_time, fit_.last()) << "arrival times must be non-decreasing";
  }
  fit_.Add(arrival_time);
  if (options_.use_empirical_estimates) {
    arrivals_.push_back(arrival_time);
  }
}

std::optional<DistributionSpec> OnlineLearner::CurrentFit() const {
  if (num_observations() < options_.min_samples) {
    return std::nullopt;
  }
  CEDAR_PROFILE_SCOPE("online_learner.fit");
  if (options_.use_empirical_estimates) {
    return FitSpecEmpirical(options_.family, arrivals_);
  }
  return fit_.Fit();
}

}  // namespace cedar
