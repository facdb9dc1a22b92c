#include "src/cluster/experiment.h"

#include "src/obs/metrics.h"
#include "src/sim/experiment_engine.h"

namespace cedar {

ClusterExperimentResult RunClusterExperiment(const Workload& workload,
                                             const std::vector<const WaitPolicy*>& policies,
                                             const ClusterExperimentConfig& config) {
  ClusterExperimentResult result = RunExperimentDriver<ClusterExperimentResult>(
      "cluster", workload, policies, config, config.run,
      [&config](const TreeSpec& offline_tree, const ClusterRunOptions& options) {
        return ClusterRuntime(config.cluster, offline_tree, config.deadline, options);
      },
      [](ClusterExperimentResult& sum, const ClusterQueryResult& cell) {
        sum.total_clones_launched += cell.clones_launched;
        sum.total_clones_won += cell.clones_won;
        sum.waves = cell.waves;
      });
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("cluster.clones_launched").Increment(result.total_clones_launched);
    registry.GetCounter("cluster.clones_won").Increment(result.total_clones_won);
  }
  return result;
}

}  // namespace cedar
