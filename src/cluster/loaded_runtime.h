// LoadedClusterRuntime: many concurrent queries sharing one slot pool.
//
// Queries arrive as a Poisson process and contend for the cluster's slots.
// Tasks run on ClusterRuntime's slot scheduler, FIFO across queries, with
// slow machines honoured and speculation off. Each query gets its own
// aggregation tree (with its arrival time as its time origin) and its own
// relative deadline. This extends the paper's one-query-at-a-time
// deployment to the loaded regime: as utilization rises, queueing delays
// inflate the effective bottom-stage durations, and the experiment measures
// how each wait policy's quality degrades with load.
//
// Aggregators hold no slots, so the arrival stream and its slot schedule
// depend on no policy: a run dispatches them once, then runs every query's
// tree under each policy in turn, from the same leaf completion times.

#ifndef CEDAR_SRC_CLUSTER_LOADED_RUNTIME_H_
#define CEDAR_SRC_CLUSTER_LOADED_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/cluster_runtime.h"
#include "src/common/sample_set.h"
#include "src/sim/query_tree.h"
#include "src/sim/workload.h"

namespace cedar {

// The shared QueryTreeOptions apply per query; a loaded trace places each
// query's span at its arrival time, so it shows the overlapping jobs.
struct LoadedRunConfig : QueryTreeOptions {
  // Slot placement is shuffled once per run, from a stream of |seed| that
  // the arrival process does not share.
  ClusterSpec cluster;
  // Per-query relative deadline D.
  double deadline = 0.0;
  // Mean query inter-arrival time (exponential), finite and > 0; smaller =
  // heavier load.
  double mean_interarrival = 0.0;
  int num_queries = 50;
  uint64_t seed = 42;
};

struct LoadedRunResult {
  // Quality of each query, in arrival order.
  SampleSet per_query_quality;
  // Mean time a task spent queued before getting a slot.
  double mean_queue_delay = 0.0;
  // Fraction of slot-time busy over the whole run.
  double utilization = 0.0;
  // Last event time.
  double makespan = 0.0;
  // Top-tier results that reached their query's root in time / late,
  // summed over all queries.
  long long root_arrivals_in_time = 0;
  long long root_arrivals_late = 0;

  double MeanQuality() const { return per_query_quality.empty() ? 0.0 : per_query_quality.Mean(); }
};

// Runs |config.num_queries| queries of |workload| through a shared cluster
// once, then every query's tree under each of |policies|: results[p] is
// what a run under policies[p] alone gives. Deterministic for a given seed.
std::vector<LoadedRunResult> RunLoadedCluster(const Workload& workload,
                                              std::span<const WaitPolicy* const> policies,
                                              const LoadedRunConfig& config);
// One policy.
LoadedRunResult RunLoadedCluster(const Workload& workload, const WaitPolicy& policy,
                                 const LoadedRunConfig& config);

}  // namespace cedar

#endif  // CEDAR_SRC_CLUSTER_LOADED_RUNTIME_H_
