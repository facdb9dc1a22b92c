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
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
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

// Validates the prototype list and stamps |result_outcomes| with unique
// policy names.
inline void AssignOutcomeNames(const std::vector<const WaitPolicy*>& policies,
                               std::vector<PolicyOutcome>& result_outcomes) {
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
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = config.pool != nullptr ? config.pool : &owned_pool.emplace(threads);
  // A few chunks per worker, claimed in order, balance skewed query costs
  // (e.g. Oracle planning on heavy-tail draws).
  ParallelFor(pool, num_queries, threads * 4, run_chunk);
  return grid;
}

// Folds one driver run into the metrics registry under |prefix| ("sim" or
// "cluster"): the run count, then the query count, per-query qualities and
// late root arrivals, each unlabelled and labelled by the run's deadline
// (%g), so a sweep can be sliced after the fact. Called after the
// deterministic merge, never from workers: the registry only observes.
inline void RecordDriverMetrics(const std::string& prefix, const ExperimentDriverConfig& config,
                                const std::vector<PolicyOutcome>& outcomes) {
  if (!MetricsEnabled()) {
    return;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(prefix + ".experiments").Increment();
  for (bool labeled : {false, true}) {
    const auto name = [&](const char* suffix) {
      return labeled ? LabeledMetricName(prefix + suffix, "deadline_ms", config.deadline)
                     : prefix + suffix;
    };
    registry.GetCounter(name(".queries")).Increment(config.num_queries);
    Histogram& quality = registry.GetHistogram(name(".query_quality"));
    Counter& late = registry.GetCounter(name(".root_arrivals_late"));
    for (const PolicyOutcome& outcome : outcomes) {
      for (double value : outcome.quality.values()) {
        quality.Observe(value);
      }
      late.Increment(outcome.root_arrivals_late);
    }
  }
}

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_
