// Experiment runner: replays a set of queries drawn from a workload under
// several competing policies, on identical realizations, and collects
// per-query qualities. Every figure harness is a thin loop over this.
//
// Queries are sharded in chunks across a thread pool with per-query
// deterministic seeding (see experiment_engine.h), so results are
// bit-identical for any thread count.

#ifndef CEDAR_SRC_SIM_EXPERIMENT_H_
#define CEDAR_SRC_SIM_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sample_set.h"
#include "src/core/policy.h"
#include "src/sim/tree_simulation.h"
#include "src/sim/workload.h"

namespace cedar {

class ThreadPool;
class WaitTableStore;

// Knobs shared by every experiment driver (analytic simulator, cluster
// engine): the concrete configs below and ClusterExperimentConfig extend it
// with engine-specific options.
struct ExperimentDriverConfig {
  double deadline = 0.0;
  int num_queries = 100;
  uint64_t seed = 42;
  // Worker threads for the parallel engine: n >= 1 runs exactly n workers,
  // <= 0 means one per hardware thread. Results are identical either way.
  int threads = 0;
  // Optional externally owned worker pool. When set, the driver runs on it
  // (ignoring |threads|) instead of constructing a pool per call — sweeps
  // reuse one pool across all their deadlines (see RunDeadlineSweep). The
  // pool is borrowed: the caller keeps ownership and the driver leaves it
  // reusable. Results are bit-identical with or without it.
  ThreadPool* pool = nullptr;
  // Optional experiment-scoped wait-table store, forwarded to policies via
  // ctx.table_store (see AggregatorContext). Borrowed; null means policies
  // resolve the process-wide WaitTableStore::Global(). Tables are
  // content-keyed and read-only, so results are bit-identical with any
  // store — this knob only scopes the *amortization*.
  WaitTableStore* wait_table_store = nullptr;
};

struct ExperimentConfig : ExperimentDriverConfig {
  TreeSimulationOptions sim;
};

struct PolicyOutcome {
  std::string policy_name;
  // One entry per query, same order for every policy (paired samples). The
  // parallel engine merges per-worker shards back in query order, so entry i
  // is query i for every policy and every thread count.
  SampleSet quality;
  long long root_arrivals_late = 0;

  double MeanQuality() const { return quality.empty() ? 0.0 : quality.Mean(); }
};

// Result shared by every driver; engine-specific results (see
// ClusterExperimentResult) extend it with their own aggregates.
struct ExperimentResult {
  std::vector<PolicyOutcome> outcomes;

  // Outcome by policy name; fatal if absent.
  const PolicyOutcome& Outcome(const std::string& policy_name) const;

  // 100 * (mean(treatment) - mean(baseline)) / mean(baseline).
  double ImprovementPercent(const std::string& baseline, const std::string& treatment) const;

  // Per-query percentage improvements (paired), skipping queries whose
  // baseline quality is below |min_baseline_quality| — the Figure 8 filter
  // that avoids unboundedly large ratios.
  std::vector<double> PerQueryImprovementPercent(const std::string& baseline,
                                                 const std::string& treatment,
                                                 double min_baseline_quality = 0.05) const;
};

// Runs |config.num_queries| queries of |workload| under every prototype in
// |policies| (all policies see identical realizations). Policies are
// identified by WaitPolicy::name(); names must be unique within the run.
//
// Ownership rule: the driver only *reads* the prototypes
// for the duration of the call — each worker forks detached replicas via
// WaitPolicy::ForkForWorker() — so the caller keeps ownership and may reuse
// or destroy them afterwards. Callers holding owning prototypes (e.g. from
// MakePolicyList) pass PolicyPointers(list).
ExperimentResult RunExperiment(const Workload& workload,
                               const std::vector<const WaitPolicy*>& policies,
                               const ExperimentConfig& config);

// Convenience percentage helper used across benches.
double PercentImprovement(double baseline, double treatment);

// Borrows the raw prototype pointers from an owning policy list.
std::vector<const WaitPolicy*> PolicyPointers(
    const std::vector<std::unique_ptr<WaitPolicy>>& policies);

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EXPERIMENT_H_
