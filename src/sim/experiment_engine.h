// The shared parallel experiment engine used by both drivers
// (sim::RunExperiment, cluster::RunClusterExperiment).
//
// Queries are embarrassingly parallel once three rules hold, and this header
// is the one place that enforces them:
//
//  1. Per-query deterministic seeding. Query q's generator is
//     Rng(DeriveStreamSeed(config.seed, q)) — derived from the experiment
//     seed and the query *index* via SplitMix64, never from shared RNG
//     state. Any worker can run any query and draw exactly the same truth
//     and realization, so results are bit-identical for every thread count.
//  2. Detached per-worker policies. Each worker chunk forks the prototypes
//     with WaitPolicy::ForkForWorker(), which must share no mutable state
//     with the source. What one query's aggregators share lives in that
//     query's QueryMemo, owned by its QueryTree on the worker running it.
//  3. Merge in query order. Every (query, policy) cell is written to its own
//     pre-sized slot of the result grid; the caller folds the grid back in
//     ascending query order, keeping paired samples aligned across policies
//     and the accumulation order — hence floating-point sums — fixed.
//
// Query sequence ids are always assigned, monotone in the query index and
// never 0 (the QueryTruth "unassigned" sentinel), whichever worker runs the
// query. They key the trace tracks and ClusterRuntime's slot-placement and
// clone RNG streams.

#ifndef CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_
#define CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/core/wait_table_store.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment.h"
#include "src/sim/realization.h"
#include "src/sim/workload.h"
#include "src/stats/rng.h"

namespace cedar {

// The sequence id the driver stamps on query |q|: monotone in q, never 0.
inline uint64_t DriverQuerySequence(uint64_t seed, long long q) {
  return (seed << 20) + 1 + static_cast<uint64_t>(q);
}

// Validates the prototype list and stamps |result_outcomes| (any container
// of PolicyOutcome-shaped entries with a policy_name) with unique names.
template <typename Outcomes>
void AssignOutcomeNames(const std::vector<const WaitPolicy*>& policies,
                        Outcomes& result_outcomes) {
  std::set<std::string> names;
  for (size_t p = 0; p < policies.size(); ++p) {
    CEDAR_CHECK(policies[p] != nullptr);
    result_outcomes[p].policy_name = policies[p]->name();
    CEDAR_CHECK(names.insert(policies[p]->name()).second)
        << "duplicate policy name '" << policies[p]->name() << "' in experiment";
  }
}

// Runs every (query, policy) pair of the experiment through |run_query| and
// returns the results as a row-major grid: cell [q * policies.size() + p]
// holds query q under policy p. |run_query| must be safe to call from
// several threads on distinct policy instances (the engines' RunQuery const
// methods are).
//
// RunQueryFn signature: Row(const WaitPolicy& policy, const QueryRealization&).
template <typename Row, typename RunQueryFn>
std::vector<Row> RunExperimentGrid(const Workload& workload, const TreeSpec& offline_tree,
                                   const std::vector<const WaitPolicy*>& policies,
                                   const ExperimentDriverConfig& config,
                                   RunQueryFn&& run_query) {
  const long long num_queries = config.num_queries;
  const size_t num_policies = policies.size();
  std::vector<Row> grid(static_cast<size_t>(num_queries) * num_policies);

  auto run_chunk = [&](long long begin, long long end, int /*chunk*/) {
    // Detached replicas: nothing in this chunk synchronizes with any other.
    std::vector<std::unique_ptr<WaitPolicy>> local;
    local.reserve(num_policies);
    for (const WaitPolicy* prototype : policies) {
      local.push_back(prototype->ForkForWorker());
    }
    for (long long q = begin; q < end; ++q) {
      Rng query_rng(DeriveStreamSeed(config.seed, static_cast<uint64_t>(q)));
      QueryTruth truth = workload.DrawQueryAt(static_cast<uint64_t>(q), query_rng);
      truth.sequence = DriverQuerySequence(config.seed, q);
      Rng realization_rng = query_rng.Fork();
      QueryRealization realization = SampleRealization(offline_tree, truth, realization_rng);
      for (size_t p = 0; p < num_policies; ++p) {
        grid[static_cast<size_t>(q) * num_policies + p] = run_query(*local[p], realization);
      }
    }
  };

  const int pool_threads =
      config.pool != nullptr ? config.pool->num_threads() : ResolveThreadCount(config.threads);
  const int threads = static_cast<int>(std::min<long long>(pool_threads, num_queries));
  if (threads <= 1) {
    // Inline serial path: same seeding, same merge order — and no worker
    // threads, which keeps gtest death tests and TSan-free builds quiet.
    run_chunk(0, num_queries, 0);
    return grid;
  }
  auto run_on_pool = [&](ThreadPool& pool) {
    // Lend the run's pool to the experiment-scoped wait-table store so
    // single-flight builds parallelize their grid fill. Only an explicitly
    // configured store is lent to — its lifetime (and exclusivity) is the
    // caller's to guarantee — never the process Global(), which concurrent
    // runs could otherwise point at a pool about to be destroyed.
    WaitTableStore* store = config.wait_table_store;
    if (store != nullptr) {
      store->SetBuildPool(&pool);
    }
    // Borrowed pools accumulate counters across calls, so export the delta
    // of this run only; post-barrier, never on the workers' hot path.
    const ThreadPool::Stats before = pool.GetStats();
    // A few chunks per worker gives the stealing deques something to balance
    // when query costs are skewed (e.g. Oracle planning on heavy-tail draws).
    ParallelForChunks(pool, num_queries, threads * 4, run_chunk);
    if (store != nullptr) {
      store->SetBuildPool(nullptr);
    }
    if (MetricsEnabled()) {
      const ThreadPool::Stats after = pool.GetStats();
      MetricsRegistry& registry = MetricsRegistry::Global();
      registry.GetCounter("pool.tasks_submitted").Increment(after.submitted - before.submitted);
      registry.GetCounter("pool.tasks_executed_local")
          .Increment(after.executed_local - before.executed_local);
      registry.GetCounter("pool.tasks_stolen").Increment(after.stolen - before.stolen);
      registry.GetCounter("pool.idle_waits").Increment(after.idle_waits - before.idle_waits);
    }
  };
  if (config.pool != nullptr) {
    run_on_pool(*config.pool);
  } else {
    ThreadPool pool(threads);
    run_on_pool(pool);
  }
  return grid;
}

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_
