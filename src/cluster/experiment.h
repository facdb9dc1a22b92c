// Cluster-engine experiment runner: the deployment-side counterpart of
// src/sim/experiment.h. Replays workload queries through the slot-scheduled
// ClusterRuntime under several policies on identical realizations, sharded
// across the same parallel engine as the analytic driver.

#ifndef CEDAR_SRC_CLUSTER_EXPERIMENT_H_
#define CEDAR_SRC_CLUSTER_EXPERIMENT_H_

#include <vector>

#include "src/cluster/cluster_runtime.h"
#include "src/sim/experiment.h"
#include "src/sim/workload.h"

namespace cedar {

struct ClusterExperimentConfig : ExperimentDriverConfig {
  ClusterSpec cluster;
  ClusterRunOptions run;
};

// Shares Outcome() / ImprovementPercent() / PerQueryImprovementPercent()
// with the analytic driver's result via the ExperimentResult base.
struct ClusterExperimentResult : ExperimentResult {
  // Speculative clones launched and won, summed over every (query, policy)
  // run of the experiment.
  long long total_clones_launched = 0;
  long long total_clones_won = 0;
  // Scheduling waves of the last run merged: the last query under the last
  // policy.
  int waves = 0;
};

// Same contract as RunExperiment (see there for the ownership rule): the
// prototypes are only read during the call; workers fork detached replicas.
ClusterExperimentResult RunClusterExperiment(const Workload& workload,
                                             const std::vector<const WaitPolicy*>& policies,
                                             const ClusterExperimentConfig& config);

}  // namespace cedar

#endif  // CEDAR_SRC_CLUSTER_EXPERIMENT_H_
