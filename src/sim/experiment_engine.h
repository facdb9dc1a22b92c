// The shared parallel experiment engine used by both drivers
// (sim::RunExperiment, cluster::RunClusterExperiment): they are one body,
// RunExperimentDriver, and differ only in the engine they build and the
// extras they fold.
//
// Queries are embarrassingly parallel once four rules hold, and this header
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
//  3. One query, all policies, one row. The worker that draws query q's
//     realization hands it to the engine once, with the worker's policy
//     forks, and the engine fills the query's row of the result grid, cells
//     [q * P, q * P + P) in policy order. So an engine runs a query's
//     policy-independent work (the slot schedule, the tier-0 leaf order)
//     once for all P policies, and no two workers write the same cell.
//  4. Merge in query order. The driver folds the grid back in ascending
//     query order, keeping paired samples aligned across policies and the
//     accumulation order — hence floating-point sums — fixed.
//
// Query sequence ids are always assigned, monotone in the query index and
// never 0 (the QueryTruth "unassigned" sentinel), whichever worker runs the
// query. They key the trace tracks and ClusterRuntime's slot-placement and
// clone RNG streams.

#ifndef CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_
#define CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
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

// Runs every query of the experiment under every policy through
// |run_query| and returns the results as a row-major grid: cell
// [q * policies.size() + p] holds query q under policy p. |run_query| must be
// safe to call from several threads on distinct policy instances and rows
// (the engines' RunQuery const methods are).
//
// RunQueryFn signature: void(std::span<const WaitPolicy* const> policies,
// const QueryRealization&, std::span<Row> row), filling row[p] with the query
// under policies[p].
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
    std::vector<const WaitPolicy*> forks;
    local.reserve(num_policies);
    forks.reserve(num_policies);
    for (const WaitPolicy* prototype : policies) {
      forks.push_back(local.emplace_back(prototype->ForkForWorker()).get());
    }
    for (long long q = begin; q < end; ++q) {
      Rng query_rng(DeriveStreamSeed(config.seed, static_cast<uint64_t>(q)));
      QueryTruth truth = workload.DrawQueryAt(static_cast<uint64_t>(q), query_rng);
      truth.sequence = DriverQuerySequence(config.seed, q);
      Rng realization_rng = query_rng.Fork();
      QueryRealization realization = SampleRealization(offline_tree, truth, realization_rng);
      run_query(std::span<const WaitPolicy* const>(forks), realization,
                std::span<Row>(grid).subspan(static_cast<size_t>(q) * num_policies, num_policies));
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

// The one experiment-driver body (RunExperiment, RunClusterExperiment):
//  1. checks the run (policies, query count, a finite deadline > 0) and
//     names each outcome after its policy, names unique;
//  2. builds the engine as make_engine(offline_tree, options), with
//     |options| pointed at config.wait_table_store when that is set;
//  3. runs the (query, policy) grid on it (RunExperimentGrid), one engine
//     call per query for all policies;
//  4. merges the grid in query order: paired samples stay aligned and the
//     accumulation order is fixed, independent of which worker ran which
//     query. Each cell adds its quality and late root arrivals to its
//     policy's outcome, then fold_extras(result, cell) adds what only that
//     engine reports;
//  5. folds the run into the metrics registry under |prefix| ("sim" or
//     "cluster"): the run count, then the query count, per-query qualities
//     and late root arrivals, each unlabelled and labelled by the run's
//     deadline (%g), so a sweep can be sliced after the fact. This happens
//     after the deterministic merge, never on workers: the registry only
//     observes.
//
// MakeEngine signature: Engine(const TreeSpec&, const EngineOptions&), where
// Engine has a const RunQuery(policies, realization, row) filling one row,
// and a one-policy RunQuery(policy, realization) whose result is the row's
// cell type.
// FoldExtras signature: void(Result&, const Row&).
template <typename Result, typename EngineOptions, typename MakeEngine, typename FoldExtras>
Result RunExperimentDriver(const std::string& prefix, const Workload& workload,
                           const std::vector<const WaitPolicy*>& policies,
                           const ExperimentDriverConfig& config, EngineOptions options,
                           MakeEngine&& make_engine, FoldExtras&& fold_extras) {
  CEDAR_CHECK(!policies.empty());
  CEDAR_CHECK_GT(config.num_queries, 0);
  CEDAR_CHECK(std::isfinite(config.deadline) && config.deadline > 0.0)
      << "deadline " << config.deadline << " must be finite and > 0";

  Result result;
  result.outcomes.resize(policies.size());
  std::set<std::string> names;
  for (size_t p = 0; p < policies.size(); ++p) {
    CEDAR_CHECK(policies[p] != nullptr);
    result.outcomes[p].policy_name = policies[p]->name();
    CEDAR_CHECK(names.insert(policies[p]->name()).second)
        << "duplicate policy name '" << policies[p]->name() << "' in experiment";
  }

  const TreeSpec offline_tree = workload.OfflineTree();
  if (config.wait_table_store != nullptr) {
    options.table_store = config.wait_table_store;
  }
  const auto engine = make_engine(offline_tree, options);
  using Row = decltype(engine.RunQuery(*policies.front(), std::declval<const QueryRealization&>()));
  const auto grid = RunExperimentGrid<Row>(
      workload, offline_tree, policies, config,
      [&engine](std::span<const WaitPolicy* const> forks, const QueryRealization& realization,
                std::span<Row> row) { engine.RunQuery(forks, realization, row); });

  const size_t num_policies = policies.size();
  for (int q = 0; q < config.num_queries; ++q) {
    for (size_t p = 0; p < num_policies; ++p) {
      const auto& cell = grid[static_cast<size_t>(q) * num_policies + p];
      result.outcomes[p].quality.Add(cell.quality);
      result.outcomes[p].root_arrivals_late += cell.root_arrivals_late;
      fold_extras(result, cell);
    }
  }

  if (MetricsEnabled()) {
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
      for (const PolicyOutcome& outcome : result.outcomes) {
        for (double value : outcome.quality.values()) {
          quality.Observe(value);
        }
        late.Increment(outcome.root_arrivals_late);
      }
    }
  }
  return result;
}

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EXPERIMENT_ENGINE_H_
