#include "src/core/policy.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/obs/metrics.h"

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

const WaitScan& TierScan::Scan(const AggregatorContext& ctx) {
  std::call_once(scan_once_, [&] {
    CEDAR_CHECK(ctx.upper_quality != nullptr);
    scan_.emplace(*ctx.upper_quality, std::max(0.0, ctx.deadline - ctx.start_offset),
                  ctx.epsilon);
  });
  return *scan_;
}

double TierScan::OfflineSendTime(const AggregatorContext& ctx) {
  std::call_once(send_time_once_, [&] {
    CEDAR_CHECK(ctx.offline_tree != nullptr);
    send_time_ = ctx.start_offset +
                 Scan(ctx).Optimize(*ctx.offline_tree->stage(ctx.tier).duration, ctx.fanout);
  });
  return send_time_;
}

TierScan& ModelTierScans::Get(int tier, double start_offset) {
  CEDAR_CHECK(std::isfinite(start_offset)) << "tier " << tier << " start offset " << start_offset;
  MutexLock lock(mutex_);
  std::unique_ptr<TierScan>& scan = scans_[{tier, start_offset}];
  if (scan == nullptr) {
    scan = std::make_unique<TierScan>();
  }
  return *scan;
}

QueryMemo::Tier& QueryMemo::tier(int index) {
  CEDAR_CHECK_GE(index, 0);
  while (static_cast<size_t>(index) >= tiers_.size()) {
    tiers_.emplace_back();  // a Tier cannot move, so the deque grows in place
  }
  return tiers_[static_cast<size_t>(index)];
}

TierScan& QueryMemo::ScanOf(const AggregatorContext& ctx) {
  Tier& entry = tier(ctx.tier);
  if (entry.scan == nullptr) {
    entry.scan = model_scans_ != nullptr ? &model_scans_->Get(ctx.tier, ctx.start_offset)
                                         : &entry.own_scan;
  }
  return *entry.scan;
}

void WaitPolicy::BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) {
  (void)ctx;
  (void)truth;
  current_wait_ = 0.0;
  deferred_ = false;
}

double WaitPolicy::DecideInitialWait(const AggregatorContext& ctx) {
  current_wait_ = InitialWait(ctx);
  return current_wait_;
}

WaitPolicy::ArrivalDecision WaitPolicy::DecideOnArrivalDeferrable(
    const AggregatorContext& ctx, double arrival_time, const std::vector<double>& arrivals) {
  const ArrivalDecision decision = OnArrivalDeferrable(ctx, arrival_time, arrivals);
  current_wait_ = decision.send_time;
  deferred_ = decision.deferred;
  if (decision.deferred && !decision.kept && MetricsEnabled()) {
    static Counter& deferred = MetricsRegistry::Global().GetCounter("policy.decisions_deferred");
    deferred.Increment();
  }
  return decision;
}

double WaitPolicy::ResolveWait(const AggregatorContext& ctx) {
  if (deferred_) {
    const double bound = current_wait_;
    current_wait_ = Resolve(ctx);
    deferred_ = false;
    CEDAR_CHECK_GE(current_wait_, bound) << "a deferred send time resolved below its bound";
    if (MetricsEnabled()) {
      static Counter& resolved = MetricsRegistry::Global().GetCounter("policy.decisions_resolved");
      resolved.Increment();
    }
  }
  return current_wait_;
}

double WaitPolicy::DecideOnArrival(const AggregatorContext& ctx, double arrival_time,
                                   const std::vector<double>& arrivals) {
  DecideOnArrivalDeferrable(ctx, arrival_time, arrivals);
  return ResolveWait(ctx);
}

double WaitPolicy::OnArrival(const AggregatorContext& ctx, double arrival_time,
                             const std::vector<double>& arrivals) {
  (void)ctx;
  (void)arrival_time;
  (void)arrivals;
  return current_wait_;
}

WaitPolicy::ArrivalDecision WaitPolicy::OnArrivalDeferrable(const AggregatorContext& ctx,
                                                            double arrival_time,
                                                            const std::vector<double>& arrivals) {
  return {OnArrival(ctx, arrival_time, arrivals), false, false};
}

double WaitPolicy::Resolve(const AggregatorContext& ctx) {
  (void)ctx;
  CEDAR_LOG(FATAL) << name() << " deferred a decision it cannot resolve";
  return current_wait_;
}

}  // namespace cedar
