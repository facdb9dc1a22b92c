#include "src/apps/analytics_service.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/sim/aggregator_node.h"
#include "src/sim/event_queue.h"
#include "src/stats/distribution.h"

namespace cedar {

void GroupPartial::Accumulate(const GroupPartial& other) {
  CEDAR_CHECK_EQ(sums.size(), other.sums.size());
  for (size_t g = 0; g < sums.size(); ++g) {
    sums[g] += other.sums[g];
    counts[g] += other.counts[g];
  }
}

FactTable::FactTable(const FactTableSpec& spec) : spec_(spec) {
  CEDAR_CHECK_GE(spec.num_partitions, 1);
  CEDAR_CHECK_GE(spec.num_groups, 1);
  CEDAR_CHECK_GE(spec.rows, spec.num_partitions);

  // Log-uniform group means.
  std::vector<double> group_mu(static_cast<size_t>(spec.num_groups));
  Rng rng(spec.seed);
  for (auto& mu : group_mu) {
    double u = rng.NextDouble();
    mu = std::log(spec.mean_low) + u * (std::log(spec.mean_high) - std::log(spec.mean_low));
  }

  partials_.resize(static_cast<size_t>(spec.num_partitions));
  for (auto& partial : partials_) {
    partial.sums.assign(static_cast<size_t>(spec.num_groups), 0.0);
    partial.counts.assign(static_cast<size_t>(spec.num_groups), 0);
  }

  std::vector<double> total_sums(static_cast<size_t>(spec.num_groups), 0.0);
  std::vector<int64_t> total_counts(static_cast<size_t>(spec.num_groups), 0);
  for (int64_t row = 0; row < spec.rows; ++row) {
    auto group = static_cast<size_t>(rng.NextBounded(static_cast<uint64_t>(spec.num_groups)));
    // Log-normal value around the group's location; the correction keeps
    // the group mean at ~exp(mu): E[lognormal] = exp(mu + sigma^2/2).
    double value = std::exp(group_mu[group] - 0.5 * spec.value_sigma * spec.value_sigma +
                            spec.value_sigma * rng.NextGaussian());
    auto partition = static_cast<size_t>(row % spec.num_partitions);
    partials_[partition].sums[group] += value;
    ++partials_[partition].counts[group];
    total_sums[group] += value;
    ++total_counts[group];
  }

  exact_means_.resize(static_cast<size_t>(spec.num_groups));
  for (size_t g = 0; g < exact_means_.size(); ++g) {
    CEDAR_CHECK_GT(total_counts[g], 0) << "empty group " << g << "; increase rows";
    exact_means_[g] = total_sums[g] / static_cast<double>(total_counts[g]);
  }
}

const GroupPartial& FactTable::PartitionPartial(int partition) const {
  CEDAR_CHECK(partition >= 0 && partition < num_partitions());
  return partials_[static_cast<size_t>(partition)];
}

AnalyticsService::AnalyticsService(const FactTable* table, TreeSpec latency_tree,
                                   AnalyticsServiceConfig config)
    : table_(table), latency_tree_(std::move(latency_tree)), config_(config) {
  CEDAR_CHECK(table_ != nullptr);
  CEDAR_CHECK_EQ(latency_tree_.num_stages(), 2);
  CEDAR_CHECK_EQ(latency_tree_.TotalProcesses(), table_->num_partitions())
      << "latency-tree fanouts must cover every partition";
  CEDAR_CHECK_GT(config_.deadline, 0.0);
  epsilon_ = config_.grid.Epsilon(config_.deadline);
  offline_stack_ = BuildUpperQualityCurves(latency_tree_, config_.deadline, config_.grid);
}

AnalyticsOutcome AnalyticsService::RunQuery(const WaitPolicy& policy,
                                            const QueryRealization& realization) const {
  int k1 = latency_tree_.stage(0).fanout;
  int k2 = latency_tree_.stage(1).fanout;
  CEDAR_CHECK_EQ(static_cast<int>(realization.stage_durations[0].size()), k1 * k2);

  std::vector<PiecewiseLinear> query_stack;
  const std::vector<PiecewiseLinear>* stack = &offline_stack_;
  if (config_.per_query_upper_knowledge) {
    TreeSpec truth_tree = realization.truth.OverlayOn(latency_tree_);
    query_stack = BuildUpperQualityCurves(truth_tree, config_.deadline, config_.grid);
    stack = &query_stack;
  }

  AggregatorContext ctx;
  ctx.tier = 0;
  ctx.deadline = config_.deadline;
  ctx.fanout = k1;
  ctx.offline_tree = &latency_tree_;
  ctx.upper_quality = &(*stack)[1];
  ctx.epsilon = epsilon_;

  EventQueue queue;
  std::vector<AggregatorNode> nodes(static_cast<size_t>(k2));
  auto empty_partial = [&] {
    GroupPartial partial;
    partial.sums.assign(static_cast<size_t>(table_->num_groups()), 0.0);
    partial.counts.assign(static_cast<size_t>(table_->num_groups()), 0);
    return partial;
  };
  std::vector<GroupPartial> collected(static_cast<size_t>(k2));
  for (auto& partial : collected) {
    partial = empty_partial();
  }

  AnalyticsOutcome outcome;
  GroupPartial root = empty_partial();

  int aggregator_misses = 0;
  auto send_fn = [&](AggregatorNode& node, double weight) {
    auto agg = static_cast<size_t>(node.index());
    double ship = realization.stage_durations[1][agg];
    if (queue.now() + ship <= config_.deadline) {
      root.Accumulate(collected[agg]);
      outcome.partitions_included += static_cast<int>(weight);
    } else {
      ++aggregator_misses;
    }
  };

  for (int a = 0; a < k2; ++a) {
    auto node_policy = policy.Clone();
    node_policy->BeginQuery(ctx, &realization.truth);
    nodes[static_cast<size_t>(a)].Init(0, a, std::move(node_policy), &ctx);
    nodes[static_cast<size_t>(a)].Start(queue, send_fn);
  }

  for (int p = 0; p < k1 * k2; ++p) {
    auto agg = static_cast<size_t>(p / k1);
    double latency = realization.stage_durations[0][static_cast<size_t>(p)];
    queue.Schedule(latency, [&, p, agg] {
      AggregatorNode& node = nodes[agg];
      if (node.closed()) {
        return;
      }
      collected[agg].Accumulate(table_->PartitionPartial(p));
      node.OnChildOutput(queue, 1.0);
    });
  }

  queue.Run();

  const auto& exact = table_->ExactGroupMeans();
  double error_sum = 0.0;
  for (size_t g = 0; g < exact.size(); ++g) {
    if (root.counts[g] > 0) {
      double approx = root.sums[g] / static_cast<double>(root.counts[g]);
      error_sum += std::fabs(approx - exact[g]) / exact[g];
      ++outcome.groups_answered;
    } else {
      error_sum += 1.0;  // unanswered group
    }
  }
  outcome.mean_relative_error = error_sum / static_cast<double>(exact.size());
  outcome.fraction_quality =
      static_cast<double>(outcome.partitions_included) / static_cast<double>(k1 * k2);

  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("analytics.queries").Increment();
    registry.GetCounter("analytics.deadline_misses").Increment(aggregator_misses);
    registry.GetHistogram("analytics.mean_relative_error", {1e-6, 10.0, 50})
        .Observe(outcome.mean_relative_error);
    registry.GetHistogram("analytics.fraction_quality", {1e-4, 1.0, 40})
        .Observe(outcome.fraction_quality);
  }
  return outcome;
}

}  // namespace cedar
