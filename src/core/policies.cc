#include "src/core/policies.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "src/common/logging.h"

namespace cedar {
namespace {

QueryMemo& MemoOf(const AggregatorContext& ctx) {
  CEDAR_CHECK(ctx.memo != nullptr) << "every AggregatorContext carries its query's memo";
  return *ctx.memo;
}

QueryMemo::Tier& TierMemo(const AggregatorContext& ctx) { return MemoOf(ctx).tier(ctx.tier); }

// The tier's scan grid: every aggregator of the tier shares its upper curve,
// deadline and epsilon.
const WaitScan& ScanOf(const AggregatorContext& ctx) { return MemoOf(ctx).ScanOf(ctx).Scan(ctx); }

// The tier's offline-optimal absolute send time: CalculateWait on the
// offline bottom distribution, computed by the first aggregator that asks.
double OfflineOptimalSendTime(const AggregatorContext& ctx) {
  return MemoOf(ctx).ScanOf(ctx).OfflineSendTime(ctx);
}

// The tier's wait table, resolved from the store on first use.
const WaitTable& TableOf(const AggregatorContext& ctx, const WaitTableSpec& spec) {
  std::shared_ptr<const WaitTable>& table = TierMemo(ctx).table;
  if (table == nullptr) {
    WaitTableStore& store =
        ctx.table_store != nullptr ? *ctx.table_store : WaitTableStore::Global();
    table = store.GetOrBuild(spec, ctx.fanout, *ctx.upper_quality,
                             std::max(0.0, ctx.deadline - ctx.start_offset), ctx.epsilon);
  }
  return *table;
}

}  // namespace

// ---------------------------------------------------------------- FixedWait

FixedWaitPolicy::FixedWaitPolicy(double absolute_wait) : absolute_wait_(absolute_wait) {
  CEDAR_CHECK_GE(absolute_wait, 0.0);
}

std::unique_ptr<WaitPolicy> FixedWaitPolicy::Clone() const {
  return std::make_unique<FixedWaitPolicy>(*this);
}

double FixedWaitPolicy::InitialWait(const AggregatorContext& ctx) {
  (void)ctx;
  return absolute_wait_;
}

// --------------------------------------------------------------- EqualSplit

std::unique_ptr<WaitPolicy> EqualSplitPolicy::Clone() const {
  return std::make_unique<EqualSplitPolicy>(*this);
}

double EqualSplitPolicy::InitialWait(const AggregatorContext& ctx) {
  CEDAR_CHECK(ctx.offline_tree != nullptr);
  int remaining_stages = ctx.offline_tree->num_stages() - ctx.tier;
  CEDAR_CHECK_GE(remaining_stages, 1);
  double budget = std::max(0.0, ctx.deadline - ctx.start_offset);
  return ctx.start_offset + budget / static_cast<double>(remaining_stages);
}

// -------------------------------------------------------- ProportionalSplit

std::unique_ptr<WaitPolicy> ProportionalSplitPolicy::Clone() const {
  return std::make_unique<ProportionalSplitPolicy>(*this);
}

double ProportionalSplitPolicy::InitialWait(const AggregatorContext& ctx) {
  CEDAR_CHECK(ctx.offline_tree != nullptr);
  // D * (mu_1 + ... + mu_{tier+1-th stage}) / sum of all stage means: the
  // share of the deadline proportional to the mean time spent up to and
  // including this aggregator's input stage (§3).
  double below = 0.0;
  for (int i = 0; i <= ctx.tier; ++i) {
    below += ctx.offline_tree->stage(i).duration->Mean();
  }
  double total = ctx.offline_tree->SumOfStageMeans();
  CEDAR_CHECK_GT(total, 0.0);
  double wait = ctx.deadline * below / total;
  return Clamp(wait, ctx.start_offset, ctx.deadline);
}

// ------------------------------------------------------------- MeanSubtract

std::unique_ptr<WaitPolicy> MeanSubtractPolicy::Clone() const {
  return std::make_unique<MeanSubtractPolicy>(*this);
}

double MeanSubtractPolicy::InitialWait(const AggregatorContext& ctx) {
  CEDAR_CHECK(ctx.offline_tree != nullptr);
  double above = 0.0;
  for (int i = ctx.tier + 1; i < ctx.offline_tree->num_stages(); ++i) {
    above += ctx.offline_tree->stage(i).duration->Mean();
  }
  return Clamp(ctx.deadline - above, ctx.start_offset, ctx.deadline);
}

// ----------------------------------------------------------- OfflineOptimal

std::unique_ptr<WaitPolicy> OfflineOptimalPolicy::Clone() const {
  return std::make_unique<OfflineOptimalPolicy>(*this);
}

double OfflineOptimalPolicy::InitialWait(const AggregatorContext& ctx) {
  return OfflineOptimalSendTime(ctx);
}

// -------------------------------------------------------------------- Cedar

CedarPolicy::CedarPolicy(CedarPolicyOptions options) : options_(options) {
  CEDAR_CHECK_GE(options_.reoptimize_every, 1);
  CheckLearnerFamily(options_.learner.family);
  if (options_.use_wait_table) {
    CEDAR_CHECK(options_.table_spec.family == options_.learner.family)
        << "wait-table family must match the learner family";
    CheckWaitTableSpec(options_.table_spec);
  }
}

std::unique_ptr<WaitPolicy> CedarPolicy::Clone() const {
  // Clones share options but never learner state.
  return std::make_unique<CedarPolicy>(options_);
}

void CedarPolicy::BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) {
  WaitPolicy::BeginQuery(ctx, truth);
  arrivals_since_reopt_ = 0;
  deferred_fit_.reset();
  if (ctx.tier == kLearningTier) {
    // Small fanouts cannot supply the default number of warm-up samples;
    // keep at least two-thirds of the children as usable signal.
    OnlineLearnerOptions learner_options = options_.learner;
    learner_options.min_samples =
        std::max(2, std::min(learner_options.min_samples, (2 * ctx.fanout) / 3));
    effective_min_samples_ = learner_options.min_samples;
    learner_.emplace(ctx.fanout, learner_options);
  } else {
    learner_.reset();
  }
}

double CedarPolicy::InitialWait(const AggregatorContext& ctx) {
  // Before any arrival, Cedar can only use the offline fit; the online
  // estimate takes over as outputs come in.
  return OfflineOptimalSendTime(ctx);
}

WaitPolicy::ArrivalDecision CedarPolicy::OnArrivalDeferrable(const AggregatorContext& ctx,
                                                             double arrival_time,
                                                             const std::vector<double>& arrivals) {
  (void)arrivals;
  const ArrivalDecision kept{current_wait_, deferred_, true};
  if (!learner_.has_value()) {
    return kept;
  }
  // The learner models stage durations relative to this tier's dispatch
  // time. Tier 0 dispatches at 0, so arrivals are durations directly;
  // clamping guards upper tiers where children may send early.
  double stage_duration = std::max(arrival_time - ctx.start_offset, 1e-12);
  learner_->Observe(stage_duration);

  if (learner_->num_observations() < effective_min_samples_) {
    return kept;
  }
  if (++arrivals_since_reopt_ < options_.reoptimize_every) {
    return kept;
  }
  arrivals_since_reopt_ = 0;

  auto fit = learner_->CurrentFit();
  if (!fit.has_value()) {
    return kept;
  }
  if (options_.use_wait_table) {
    return {ctx.start_offset + TableOf(ctx, options_.table_spec).LookupSpec(*fit), false, false};
  }
  const LearnedDistribution fitted = MakeLearnedDistribution(*fit);
  const WaitScan::Bound bound = ScanOf(ctx).OptimizeOrBound(AsDistribution(fitted), ctx.fanout,
                                                            arrival_time - ctx.start_offset);
  if (!bound.exact) {
    deferred_fit_ = fitted;
  }
  return {ctx.start_offset + bound.wait, !bound.exact, false};
}

double CedarPolicy::Resolve(const AggregatorContext& ctx) {
  CEDAR_CHECK(deferred_fit_.has_value());
  const double wait = ScanOf(ctx).Optimize(AsDistribution(*deferred_fit_), ctx.fanout);
  deferred_fit_.reset();
  return ctx.start_offset + wait;
}

// ------------------------------------------------------------------- Oracle

std::unique_ptr<WaitPolicy> OraclePolicy::Clone() const {
  return std::make_unique<OraclePolicy>();
}

void OraclePolicy::BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) {
  WaitPolicy::BeginQuery(ctx, truth);
  truth_ = truth;
}

double OraclePolicy::InitialWait(const AggregatorContext& ctx) {
  CEDAR_CHECK(ctx.offline_tree != nullptr);
  std::optional<TreePlan>& plan = MemoOf(ctx).plan();
  if (!plan.has_value()) {
    TreeSpec tree =
        truth_ != nullptr ? truth_->OverlayOn(*ctx.offline_tree) : *ctx.offline_tree;
    // Plan on the query tree's grid: its epsilon is deadline / steps, so
    // the nearest integer to deadline / epsilon recovers steps exactly.
    QualityGridOptions options;
    if (ctx.deadline > 0.0 && ctx.epsilon > 0.0) {
      options.steps = static_cast<int>(std::max(1L, std::lround(ctx.deadline / ctx.epsilon)));
    }
    plan = PlanTree(tree, ctx.deadline, options);
  }
  CEDAR_CHECK_LT(static_cast<size_t>(ctx.tier), plan->absolute_waits.size());
  return plan->absolute_waits[static_cast<size_t>(ctx.tier)];
}

}  // namespace cedar
