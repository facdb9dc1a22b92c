#include "src/sim/query_tree.h"

#include <cfloat>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace cedar {

QueryTreeModel::QueryTreeModel(TreeSpec offline_tree, double deadline,
                               const QueryTreeOptions& options)
    : offline_tree_(std::move(offline_tree)), deadline_(deadline), options_(options) {
  CEDAR_CHECK_GT(deadline, 0.0);
  CEDAR_CHECK_GE(offline_tree_.num_stages(), 2) << "a query tree needs >= 2 stages";
  epsilon_ = options_.grid.Epsilon(deadline_);
  curve_stack_ = BuildUpperQualityCurves(offline_tree_, deadline_, options_.grid);
}

QueryTree::QueryTree(const QueryTreeModel& model, const WaitPolicy& policy_prototype,
                     const QueryRealization& realization, const char* engine, double origin)
    : model_(model),
      realization_(realization),
      origin_(origin),
      trace_(ActiveTraceCollector(), realization.truth.sequence, policy_prototype.name(), engine,
             origin),
      memo_(model.tier_scans()) {
  const TreeSpec& tree = model_.offline_tree();
  const int tiers = tree.num_aggregator_tiers();
  CEDAR_CHECK_EQ(static_cast<int>(realization_.stage_durations.size()), tree.num_stages());
  QueryTraceBuilder* trace_ptr = trace();

  // Only the curves for stages >= 1 are consulted, so the bottom stage stays
  // offline/global under either knowledge model.
  const std::vector<PiecewiseLinear>* stack = &model_.curve_stack();
  if (model_.options().per_query_upper_knowledge) {
    query_stack_ = BuildUpperQualityCurves(realization_.truth.OverlayOn(tree), model_.deadline(),
                                           model_.options().grid);
    stack = &query_stack_;
  }

  // start_offset of tier i is the *planned* send time of tier i-1, computed
  // with a scratch policy instance so that each tier's plan is consistent
  // with the policy's own decisions.
  contexts_.resize(static_cast<size_t>(tiers));
  double offset = 0.0;
  for (int tier = 0; tier < tiers; ++tier) {
    AggregatorContext& ctx = contexts_[static_cast<size_t>(tier)];
    ctx.tier = tier;
    ctx.deadline = model_.deadline();
    ctx.start_offset = offset;
    ctx.fanout = tree.stage(tier).fanout;
    ctx.offline_tree = &tree;
    ctx.upper_quality = &(*stack)[static_cast<size_t>(tier + 1)];
    ctx.epsilon = model_.epsilon();
    ctx.table_store = model_.options().table_store;
    ctx.memo = &memo_;
    if (trace_ptr != nullptr) {
      trace_ptr->RecordTierPlan(tier, offset);
    }
    if (tier + 1 < tiers) {
      auto scratch = policy_prototype.Clone();
      scratch->BeginQuery(ctx, &realization_.truth);
      offset = scratch->DecideInitialWait(ctx);
    }
  }

  // Tier i has StageEdgeCount(i+1) nodes (= number of stage-(i+1) edges).
  nodes_.resize(static_cast<size_t>(tiers));
  for (int tier = 0; tier < tiers; ++tier) {
    const AggregatorContext& ctx = contexts_[static_cast<size_t>(tier)];
    auto& row = nodes_[static_cast<size_t>(tier)];
    row = std::vector<AggregatorNode>(static_cast<size_t>(StageEdgeCount(tree, tier + 1)));
    aggregators_ += static_cast<long long>(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      auto policy = policy_prototype.Clone();
      policy->BeginQuery(ctx, &realization_.truth);
      row[i].Init(tier, static_cast<long long>(i), std::move(policy), &ctx, origin_, trace_ptr);
    }
  }
}

void QueryTree::Start(EventQueue& queue) {
  queue_ = &queue;
  for (auto& row : nodes_) {
    for (auto& node : row) {
      node.Start(queue, [this](AggregatorNode& sender, double weight) { OnSend(sender, weight); });
    }
  }
}

bool QueryTree::DeliverLeaf(long long leaf) {
  double weight = realization_.leaf_weights.empty()
                      ? 1.0
                      : realization_.leaf_weights[static_cast<size_t>(leaf)];
  long long agg = leaf / model_.offline_tree().stage(0).fanout;
  AggregatorNode& node = nodes_[0][static_cast<size_t>(agg)];
  if (node.closed()) {
    return false;
  }
  node.OnChildOutput(weight);
  return true;
}

void QueryTree::OnSend(AggregatorNode& node, double weight) {
  int tier = node.tier();
  long long index = node.index();
  double ship =
      realization_.stage_durations[static_cast<size_t>(tier + 1)][static_cast<size_t>(index)];
  double arrive_at = queue_->now() + ship;
  if (tier == 0) {
    tier0_send_sum_ += queue_->now() - origin_;
    ++tier0_sends_;
  }
  if (tier + 1 == static_cast<int>(nodes_.size())) {
    // Top tier: deliver to the root, subject to the deadline.
    bool in_time = arrive_at <= origin_ + model_.deadline();
    if (in_time) {
      included_weight_ += weight;
      root_senders_.push_back(index);
    } else {
      ++root_late_;
    }
    if (trace_.active()) {
      trace_.RecordRootArrival(arrive_at - origin_, in_time);
    }
    return;
  }
  long long parent = index / model_.offline_tree().stage(tier + 1).fanout;
  AggregatorNode& parent_node = nodes_[static_cast<size_t>(tier + 1)][static_cast<size_t>(parent)];
  // Two words of capture: std::function keeps the closure inline.
  queue_->Schedule(arrive_at, [&parent_node, weight] { parent_node.OnChildOutput(weight); });
}

QueryResult QueryTree::Result() const {
  // Every aggregator sends exactly once: each tier-0 node, and each top-tier
  // node either in time or late.
  CEDAR_CHECK_EQ(tier0_sends_, static_cast<long long>(nodes_.front().size()));
  CEDAR_CHECK_EQ(static_cast<long long>(root_senders_.size()) + root_late_,
                 static_cast<long long>(nodes_.back().size()));
  QueryResult result;
  result.total_weight = realization_.TotalWeight();
  result.included_weight = included_weight_;
  result.quality = result.total_weight > 0.0 ? included_weight_ / result.total_weight : 0.0;
  // The included weight sums the leaf weights that reached the root in
  // arrival order, through the tiers; the total sums all of them in index
  // order. Any two orders of n non-negative terms agree within
  // 2 * gamma_{n-1} ~ (n - 1) * DBL_EPSILON of the total, so n * DBL_EPSILON
  // of it is the allowance. Unit weights sum exactly.
  const auto leaves = static_cast<double>(realization_.stage_durations[0].size());
  CEDAR_CHECK(std::isfinite(result.quality)) << "quality " << result.quality;
  CEDAR_CHECK(included_weight_ >= 0.0 &&
              included_weight_ <= result.total_weight * (1.0 + leaves * DBL_EPSILON))
      << "included weight " << included_weight_ << " outside [0, total weight "
      << result.total_weight << "]";
  result.root_arrivals_in_time = static_cast<long long>(root_senders_.size());
  result.root_arrivals_late = root_late_;
  result.mean_tier0_send_time =
      tier0_sends_ > 0 ? tier0_send_sum_ / static_cast<double>(tier0_sends_) : 0.0;
  return result;
}

}  // namespace cedar
