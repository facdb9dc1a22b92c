#include "src/cluster/experiment.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment_engine.h"

namespace cedar {

ClusterExperimentResult RunClusterExperiment(const Workload& workload,
                                             const std::vector<const WaitPolicy*>& policies,
                                             const ClusterExperimentConfig& config) {
  CEDAR_CHECK(!policies.empty());
  CEDAR_CHECK_GT(config.num_queries, 0);
  CEDAR_CHECK(std::isfinite(config.deadline) && config.deadline > 0.0)
      << "deadline " << config.deadline << " must be finite and > 0";

  ClusterExperimentResult result;
  result.outcomes.resize(policies.size());
  AssignOutcomeNames(policies, result.outcomes);

  TreeSpec offline_tree = workload.OfflineTree();
  ClusterRunOptions run_options = config.run;
  if (config.wait_table_store != nullptr) {
    run_options.table_store = config.wait_table_store;
  }
  ClusterRuntime runtime(config.cluster, offline_tree, config.deadline, run_options);

  std::vector<ClusterQueryResult> grid = RunExperimentGrid<ClusterQueryResult>(
      workload, offline_tree, policies, config,
      [&runtime](const WaitPolicy& policy, const QueryRealization& realization) {
        return runtime.RunQuery(policy, realization);
      });

  const size_t num_policies = policies.size();
  for (int q = 0; q < config.num_queries; ++q) {
    for (size_t p = 0; p < num_policies; ++p) {
      const ClusterQueryResult& query_result = grid[static_cast<size_t>(q) * num_policies + p];
      result.outcomes[p].quality.Add(query_result.quality);
      result.outcomes[p].root_arrivals_late += query_result.root_arrivals_late;
      result.total_clones_launched += query_result.clones_launched;
      result.total_clones_won += query_result.clones_won;
      result.waves = query_result.waves;
    }
  }

  // Folded after the deterministic merge, same contract as the sim driver.
  RecordDriverMetrics("cluster", config, result.outcomes);
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("cluster.clones_launched").Increment(result.total_clones_launched);
    registry.GetCounter("cluster.clones_won").Increment(result.total_clones_won);
  }
  return result;
}

}  // namespace cedar
