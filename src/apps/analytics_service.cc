#include "src/apps/analytics_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/query_trace.h"
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
    : table_(table),
      model_(std::move(latency_tree), config.deadline,
             {.grid = config.grid, .per_query_upper_knowledge = config.per_query_upper_knowledge}) {
  CEDAR_CHECK(table_ != nullptr);
  const TreeSpec& tree = model_.offline_tree();
  CEDAR_CHECK_EQ(tree.num_stages(), 2);
  CEDAR_CHECK_EQ(tree.TotalProcesses(), table_->num_partitions())
      << "latency-tree fanouts must cover every partition";
}

AnalyticsOutcome AnalyticsService::RunQuery(const WaitPolicy& policy,
                                            const QueryRealization& realization) const {
  const int k1 = model_.offline_tree().stage(0).fanout;
  const int partitions = table_->num_partitions();
  CEDAR_CHECK_EQ(static_cast<int>(realization.stage_durations[0].size()), partitions);
  CEDAR_CHECK(realization.leaf_weights.empty()) << "analytics counts partitions, not weights";

  // Partition p (owned by aggregator p / k1) delivers its partial at its
  // sampled latency; collected[a] sums aggregator a's included partials.
  QueryTree tree(model_, policy, realization, "analytics");
  GroupPartial empty;
  empty.sums.assign(static_cast<size_t>(table_->num_groups()), 0.0);
  empty.counts.assign(static_cast<size_t>(table_->num_groups()), 0);
  std::vector<GroupPartial> collected(static_cast<size_t>(partitions / k1), empty);
  const FixedTimeRun run = tree.RunFixedTimeLeaves(realization.stage_durations[0], [&](long long p) {
    const int partition = static_cast<int>(p);
    collected[static_cast<size_t>(partition / k1)].Accumulate(
        table_->PartitionPartial(partition));
  });
  const QueryResult& result = run.result;

  GroupPartial root = empty;
  for (long long agg : tree.root_senders()) {
    root.Accumulate(collected[static_cast<size_t>(agg)]);
  }

  AnalyticsOutcome outcome;
  outcome.partitions_included = static_cast<int>(result.included_weight);
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
      static_cast<double>(outcome.partitions_included) / static_cast<double>(partitions);

  if (QueryTraceBuilder* trace = tree.trace()) {
    trace->Finish(std::max(run.end_time, model_.deadline()), result.quality,
                  {TraceArg::Num("mean_relative_error", outcome.mean_relative_error)});
  }
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("analytics.queries").Increment();
    registry.GetCounter("analytics.deadline_misses").Increment(result.root_arrivals_late);
    registry.GetHistogram("analytics.mean_relative_error").Observe(outcome.mean_relative_error);
    registry.GetHistogram("analytics.fraction_quality").Observe(outcome.fraction_quality);
  }
  return outcome;
}

}  // namespace cedar
