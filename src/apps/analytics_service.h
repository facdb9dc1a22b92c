// A miniature approximate-analytics engine (§2.1, Figure 3): a partitioned
// fact table, AVG(value) GROUP BY group executed as partial aggregates that
// merge up a two-level tree under a deadline. Beyond the §3
// fraction-of-outputs metric, this app measures what the user actually
// cares about: the relative error of the approximate group means against
// the exact answer — the BlinkDB-style accuracy/deadline trade-off.

#ifndef CEDAR_SRC_APPS_ANALYTICS_SERVICE_H_
#define CEDAR_SRC_APPS_ANALYTICS_SERVICE_H_

#include <cstdint>
#include <vector>

#include "src/core/policy.h"
#include "src/core/quality.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"
#include "src/stats/rng.h"

namespace cedar {

struct FactTableSpec {
  int64_t rows = 200000;
  int num_groups = 16;
  int num_partitions = 400;
  uint64_t seed = 1;
  // Group means are spread log-uniformly in [mean_low, mean_high]; values
  // are log-normal around their group mean (heavy-tailed measures, as in
  // revenue-like columns).
  double mean_low = 10.0;
  double mean_high = 1000.0;
  double value_sigma = 0.6;
};

// Per-group (sum, count) partials — the unit that flows up the tree.
struct GroupPartial {
  std::vector<double> sums;
  std::vector<int64_t> counts;

  void Accumulate(const GroupPartial& other);
};

// A synthetic partitioned fact table, immutable after construction.
class FactTable {
 public:
  explicit FactTable(const FactTableSpec& spec);

  int num_partitions() const { return spec_.num_partitions; }
  int num_groups() const { return spec_.num_groups; }

  // The partial aggregate of one partition.
  const GroupPartial& PartitionPartial(int partition) const;

  // Exact AVG(value) per group over the full table.
  const std::vector<double>& ExactGroupMeans() const { return exact_means_; }

 private:
  FactTableSpec spec_;
  std::vector<GroupPartial> partials_;
  std::vector<double> exact_means_;
};

struct AnalyticsOutcome {
  // §3 metric: fraction of partition outputs included at the root.
  double fraction_quality = 0.0;
  // Mean over groups of |approx_mean - exact_mean| / exact_mean; a group
  // with no included rows contributes error 1.
  double mean_relative_error = 0.0;
  int partitions_included = 0;
  int groups_answered = 0;
};

struct AnalyticsServiceConfig {
  double deadline = 0.0;
  QualityGridOptions grid;
  bool per_query_upper_knowledge = true;
};

class AnalyticsService {
 public:
  // |latency_tree| fanouts must cover every partition (two levels).
  // |table| must outlive the service.
  AnalyticsService(const FactTable* table, TreeSpec latency_tree,
                   AnalyticsServiceConfig config);

  // Runs the query with per-partition/ship latencies from |realization|
  // (unweighted) under |policy|, on a QueryTree traced as engine
  // "analytics".
  AnalyticsOutcome RunQuery(const WaitPolicy& policy, const QueryRealization& realization) const;

 private:
  const FactTable* table_;
  QueryTreeModel model_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_APPS_ANALYTICS_SERVICE_H_
