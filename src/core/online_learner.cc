#include "src/core/online_learner.h"

#include "src/common/logging.h"
#include "src/obs/profiler.h"

namespace cedar {

OnlineLearner::OnlineLearner(int fanout, OnlineLearnerOptions options)
    : fanout_(fanout), options_(options) {
  CEDAR_CHECK_GE(fanout, 1);
  CEDAR_CHECK_GE(options_.min_samples, 2) << "pairwise estimation needs >= 2 samples";
}

void OnlineLearner::Observe(double arrival_time) {
  CEDAR_CHECK_LT(num_observations(), fanout_) << "more arrivals than fanout";
  if (!arrivals_.empty()) {
    CEDAR_CHECK_GE(arrival_time, arrivals_.back()) << "arrival times must be non-decreasing";
  }
  arrivals_.push_back(arrival_time);
  fit_valid_ = false;
}

std::optional<DistributionSpec> OnlineLearner::CurrentFit() const {
  if (fit_valid_) {
    return cached_fit_;
  }
  fit_valid_ = true;
  cached_fit_ = std::nullopt;
  if (num_observations() < options_.min_samples) {
    return cached_fit_;
  }
  // Only the recompute path is timed; cache hits return above.
  CEDAR_PROFILE_SCOPE("online_learner.fit");
  if (options_.use_empirical_estimates) {
    cached_fit_ = FitSpecEmpirical(options_.family, arrivals_);
  } else {
    cached_fit_ =
        FitSpecFromOrderStats(options_.family, arrivals_, fanout_, options_.score_method);
  }
  return cached_fit_;
}

void OnlineLearner::Reset() {
  arrivals_.clear();
  fit_valid_ = false;
  cached_fit_ = std::nullopt;
}

}  // namespace cedar
