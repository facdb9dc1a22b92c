// ClusterRuntime: a slot-scheduled partition-aggregate execution engine —
// the substitute for the paper's Spark deployment on 80 quad-core EC2
// machines (320 process slots, §5.1).
//
// Differences from the analytic TreeSimulation:
//  * Leaf processes are *tasks* that occupy slots. Tasks are placed FIFO
//    over the cluster's slots; when there are more tasks than slots the job
//    runs in waves, so arrival times at aggregators include queueing delay
//    (a dynamic the analytic model does not capture — this is what makes
//    the engine a deployment stand-in).
//  * Optional speculative execution (straggler mitigation, §7): when slots
//    go idle at the end of a stage, the longest-running task is cloned with
//    a freshly drawn duration; the earlier copy wins and the other is
//    killed, as in the production clusters the traces come from (§2.2).
//
// RunQuery and RunLoadedCluster (loaded_runtime.h) run their leaves on one
// slot scheduler, private to cluster_runtime.cc.
//
// Aggregators are modelled as long-running reducers that do not consume
// process slots, matching the paper's 320-slots-for-320-processes setup
// (fanout 20 x 16), so no wait decision changes what the slot scheduler
// does. Each query's leaf tasks therefore run first, once for every policy
// the query is replayed under, and each policy's QueryTree then runs
// Pseudocode 1 from the same completion times, through the same queue-free
// runner as TreeSimulation (QueryTree::RunFixedTimeLeaves).

#ifndef CEDAR_SRC_CLUSTER_CLUSTER_RUNTIME_H_
#define CEDAR_SRC_CLUSTER_CLUSTER_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/policy.h"
#include "src/core/tree.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"

namespace cedar {

struct ClusterSpec {
  int machines = 80;
  int slots_per_machine = 4;

  // Heterogeneity / hot spots (§2.2: contention makes some machines slow).
  // The first floor(machines * slow_machine_fraction) machines run every
  // task slow_machine_factor times longer. Speculative clones can land on
  // healthy machines, which is where speculation actually pays off. Both
  // engines reject a fraction outside [0, 1] and a factor that is not
  // finite and > 0.
  double slow_machine_fraction = 0.0;
  double slow_machine_factor = 1.0;

  int TotalSlots() const { return machines * slots_per_machine; }

  // Number of machines marked slow.
  int SlowMachines() const;

  // Duration multiplier for a task placed on |slot|.
  double SlotSpeedFactor(int slot) const;
};

struct SpeculationOptions {
  // A clone is launched for the longest-running task once slots are idle
  // and the task has run at least twice the median completed duration of
  // its stage.
  bool enabled = false;
  // At most this many clones launched per query, counting clones that
  // lose or are killed.
  int max_clones = 8;
};

struct ClusterRunOptions : QueryTreeOptions {
  SpeculationOptions speculation;
  // Seed for runtime-internal randomness (speculative clone durations).
  uint64_t runtime_seed = 1;
};

// The shared QueryResult plus slot-scheduler diagnostics.
struct ClusterQueryResult : QueryResult {
  int waves = 0;               // ceil(tasks / slots) actually observed
  double makespan = 0.0;       // last event time
  long long tasks_launched = 0;  // including speculative clones
  long long clones_launched = 0;
  long long clones_won = 0;  // clones that finished before the original
};

class ClusterRuntime {
 public:
  // |offline_tree| supplies fanouts and the offline/global stage
  // distributions, exactly as in TreeSimulation.
  ClusterRuntime(ClusterSpec cluster, TreeSpec offline_tree, double deadline,
                 ClusterRunOptions options = {});

  // Replays one query under each of |policies| into results[p].
  // realization.stage_durations supply task *service* durations; queueing
  // is added by the engine. The slot scheduler runs once, and every
  // policy's tree runs over the same leaf completion times and tier-0 leaf
  // order; each result keeps its own tree's events next to the shared slot
  // statistics.
  void RunQuery(std::span<const WaitPolicy* const> policies, const QueryRealization& realization,
                std::span<ClusterQueryResult> results) const;
  // One policy.
  ClusterQueryResult RunQuery(const WaitPolicy& policy_prototype,
                              const QueryRealization& realization) const;

  const TreeSpec& offline_tree() const { return model_.offline_tree(); }
  const ClusterSpec& cluster() const { return cluster_; }
  double deadline() const { return model_.deadline(); }

 private:
  ClusterSpec cluster_;
  ClusterRunOptions options_;
  QueryTreeModel model_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_CLUSTER_CLUSTER_RUNTIME_H_
