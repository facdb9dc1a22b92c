#include "src/core/policy.h"

#include "src/common/logging.h"

namespace cedar {

TreeSpec QueryTruth::OverlayOn(const TreeSpec& base) const {
  CEDAR_CHECK_EQ(static_cast<int>(stage_durations.size()), base.num_stages())
      << "truth/stage count mismatch";
  std::vector<StageSpec> stages;
  stages.reserve(stage_durations.size());
  for (int i = 0; i < base.num_stages(); ++i) {
    CEDAR_CHECK(stage_durations[static_cast<size_t>(i)] != nullptr);
    stages.emplace_back(stage_durations[static_cast<size_t>(i)], base.stage(i).fanout);
  }
  return TreeSpec(std::move(stages));
}

QueryMemo::Tier& QueryMemo::tier(int index) {
  CEDAR_CHECK_GE(index, 0);
  if (static_cast<size_t>(index) >= tiers_.size()) {
    tiers_.resize(static_cast<size_t>(index) + 1);
  }
  return tiers_[static_cast<size_t>(index)];
}

void WaitPolicy::BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) {
  (void)ctx;
  (void)truth;
  current_wait_ = 0.0;
}

double WaitPolicy::DecideInitialWait(const AggregatorContext& ctx) {
  current_wait_ = InitialWait(ctx);
  return current_wait_;
}

double WaitPolicy::DecideOnArrival(const AggregatorContext& ctx, double arrival_time,
                                   const std::vector<double>& arrivals) {
  current_wait_ = OnArrival(ctx, arrival_time, arrivals);
  return current_wait_;
}

double WaitPolicy::OnArrival(const AggregatorContext& ctx, double arrival_time,
                             const std::vector<double>& arrivals) {
  (void)ctx;
  (void)arrival_time;
  (void)arrivals;
  return current_wait_;
}

}  // namespace cedar
