// The engines' list forms run a query's policy-independent work once (the
// slot schedule, the tier-0 leaf order) and each policy's tree over it. A
// differential test: every cell of a list-form run must equal, bit for bit,
// what the one-policy form gives for that policy alone.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_runtime.h"
#include "src/cluster/experiment.h"
#include "src/cluster/loaded_runtime.h"
#include "src/core/policies.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/stats/distribution.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Prop-split, Cedar and a fixed wait: a policy that ignores the arrivals, one
// that learns from them, and one whose timers sit at one time everywhere.
struct Policies {
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;
  FixedWaitPolicy fixed;
  std::vector<const WaitPolicy*> list;

  explicit Policies(double fixed_wait) : fixed(fixed_wait) {
    list = {&prop_split, &cedar, &fixed};
  }
};

void ExpectSameQueryResult(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(Bits(got.quality), Bits(want.quality));
  EXPECT_EQ(Bits(got.included_weight), Bits(want.included_weight));
  EXPECT_EQ(Bits(got.total_weight), Bits(want.total_weight));
  EXPECT_EQ(got.root_arrivals_in_time, want.root_arrivals_in_time);
  EXPECT_EQ(got.root_arrivals_late, want.root_arrivals_late);
  EXPECT_EQ(Bits(got.mean_tier0_send_time), Bits(want.mean_tier0_send_time));
  EXPECT_EQ(got.events, want.events);
}

void ExpectSameClusterResult(const ClusterQueryResult& got, const ClusterQueryResult& want) {
  ExpectSameQueryResult(got, want);
  EXPECT_EQ(got.waves, want.waves);
  EXPECT_EQ(Bits(got.makespan), Bits(want.makespan));
  EXPECT_EQ(got.tasks_launched, want.tasks_launched);
  EXPECT_EQ(got.clones_launched, want.clones_launched);
  EXPECT_EQ(got.clones_won, want.clones_won);
}

QueryRealization Draw(const Workload& workload, const TreeSpec& tree, uint64_t seed) {
  Rng rng(seed);
  QueryTruth truth = workload.DrawQuery(rng);
  truth.sequence = seed;
  return SampleRealization(tree, truth, rng);
}

TEST(PolicyListTest, TreeSimulationListEqualsOnePolicyAtATime) {
  const MetaLogNormalWorkload workload = MakeInteractiveWorkload(12, 10);
  const TreeSpec tree = workload.OfflineTree();
  const TreeSimulation sim(tree, 155.0);
  Policies policies(60.0);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const QueryRealization realization = Draw(workload, tree, seed);
    std::vector<QueryResult> row(policies.list.size());
    sim.RunQuery(policies.list, realization, row);
    for (size_t p = 0; p < row.size(); ++p) {
      SCOPED_TRACE(policies.list[p]->name() + ", seed " + std::to_string(seed));
      ExpectSameQueryResult(row[p], sim.RunQuery(*policies.list[p], realization));
    }
  }
}

TEST(PolicyListTest, ClusterRuntimeListEqualsOnePolicyAtATime) {
  // 320 tasks on 80 slots run in 4 waves; a quarter of the machines are 4x
  // slow, so speculation clones stragglers onto healthy ones and some
  // clones win.
  const MetaLogNormalWorkload workload = MakeFacebookWorkload(20, 16);
  const TreeSpec tree = workload.OfflineTree();
  ClusterSpec cluster;
  cluster.machines = 20;
  cluster.slots_per_machine = 4;
  cluster.slow_machine_fraction = 0.25;
  cluster.slow_machine_factor = 4.0;
  ClusterRunOptions options;
  options.speculation.enabled = true;
  options.speculation.max_clones = 16;
  const ClusterRuntime runtime(cluster, tree, 1000.0, options);
  Policies policies(500.0);
  long long clones_won = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const QueryRealization realization = Draw(workload, tree, seed);
    std::vector<ClusterQueryResult> row(policies.list.size());
    runtime.RunQuery(policies.list, realization, row);
    for (size_t p = 0; p < row.size(); ++p) {
      SCOPED_TRACE(policies.list[p]->name() + ", seed " + std::to_string(seed));
      ExpectSameClusterResult(row[p], runtime.RunQuery(*policies.list[p], realization));
      EXPECT_EQ(row[p].waves, 4);
    }
    clones_won += row.front().clones_won;
  }
  EXPECT_GT(clones_won, 0);
}

TEST(PolicyListTest, ClusterDriverRowsEqualOnePolicyExperiments) {
  // The driver hands each worker's query to the engine once for all
  // policies, three workers writing rows side by side.
  const MetaLogNormalWorkload workload = MakeFacebookWorkload(10, 8);
  Policies policies(500.0);
  ClusterExperimentConfig config;
  config.cluster.machines = 10;
  config.cluster.slots_per_machine = 4;
  config.cluster.slow_machine_fraction = 0.2;
  config.cluster.slow_machine_factor = 4.0;
  config.run.speculation.enabled = true;
  config.deadline = 1000.0;
  config.num_queries = 24;
  config.threads = 3;
  const ClusterExperimentResult all = RunClusterExperiment(workload, policies.list, config);
  long long clones_launched = 0;
  for (size_t p = 0; p < policies.list.size(); ++p) {
    SCOPED_TRACE(policies.list[p]->name());
    const ClusterExperimentResult one =
        RunClusterExperiment(workload, {policies.list[p]}, config);
    const auto& got = all.outcomes[p].quality.values();
    const auto& want = one.outcomes.front().quality.values();
    ASSERT_EQ(got.size(), want.size());
    for (size_t q = 0; q < got.size(); ++q) {
      EXPECT_EQ(Bits(got[q]), Bits(want[q])) << "query " << q;
    }
    EXPECT_EQ(all.outcomes[p].root_arrivals_late, one.outcomes.front().root_arrivals_late);
    clones_launched += one.total_clones_launched;
  }
  EXPECT_EQ(all.total_clones_launched, clones_launched);
}

TEST(PolicyListTest, LoadedRunListEqualsOnePolicyAtATime) {
  // Arrivals 300 apart on 80 slots keep several jobs in flight, and slow
  // machines stretch some of them.
  const MetaLogNormalWorkload workload = MakeFacebookWorkload(10, 8);
  LoadedRunConfig config;
  config.cluster.machines = 20;
  config.cluster.slots_per_machine = 4;
  config.cluster.slow_machine_fraction = 0.2;
  config.cluster.slow_machine_factor = 3.0;
  config.deadline = 1000.0;
  config.mean_interarrival = 300.0;
  config.num_queries = 15;
  config.seed = 11;
  Policies policies(500.0);
  const std::vector<LoadedRunResult> all = RunLoadedCluster(workload, policies.list, config);
  ASSERT_EQ(all.size(), policies.list.size());
  for (size_t p = 0; p < all.size(); ++p) {
    SCOPED_TRACE(policies.list[p]->name());
    const LoadedRunResult one = RunLoadedCluster(workload, *policies.list[p], config);
    const auto& got = all[p].per_query_quality.values();
    const auto& want = one.per_query_quality.values();
    ASSERT_EQ(got.size(), want.size());
    for (size_t q = 0; q < got.size(); ++q) {
      EXPECT_EQ(Bits(got[q]), Bits(want[q])) << "query " << q;
    }
    EXPECT_EQ(Bits(all[p].utilization), Bits(one.utilization));
    EXPECT_EQ(Bits(all[p].mean_queue_delay), Bits(one.mean_queue_delay));
    EXPECT_EQ(Bits(all[p].makespan), Bits(one.makespan));
    EXPECT_EQ(all[p].root_arrivals_in_time, one.root_arrivals_in_time);
    EXPECT_EQ(all[p].root_arrivals_late, one.root_arrivals_late);
  }
  EXPECT_GT(all.front().mean_queue_delay, 0.0);
}

TEST(PolicyListTest, PresortedLeafOrderKeepsTheLeafIndexTieRule) {
  // Two aggregators of four leaves each, which send to the root, every
  // stage exponential with mean 1. Aggregator 0's leaves 0, 2 and 3
  // tie at 0.5, and its leaf 1 reaches it at 1.0, when a fixed wait of 1.0
  // fires its initial timer. Equal-time leaves run in index order, and an
  // initial timer is queued before every leaf, so the timer wins the tie at
  // 1.0 and leaf 1 is dropped.
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), 4);
  stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), 2);
  const TreeSpec tree(std::move(stages));
  QueryRealization realization;
  for (int i = 0; i < tree.num_stages(); ++i) {
    realization.truth.stage_durations.push_back(tree.stage(i).duration);
  }
  realization.truth.sequence = 3;
  realization.stage_durations = {{0.5, 1.0, 0.5, 0.5, 0.25, 0.25, 3.0, 0.75}, {0.5, 0.5}};

  const LeafOrder order(realization.stage_durations[0], 4);
  const auto block = order.block(0);
  ASSERT_EQ(block.size(), 4u);
  const size_t expected_leaves[] = {0, 2, 3, 1};
  for (size_t j = 0; j < block.size(); ++j) {
    EXPECT_EQ(block[j].child, expected_leaves[j]);
  }
  EXPECT_EQ(order.block(1)[0].child, 4u);
  EXPECT_EQ(order.block(1)[1].child, 5u);
  EXPECT_EQ(Bits(order.latest()), Bits(3.0));

  const QueryTreeModel model(tree, 4.0, QueryTreeOptions{});
  const FixedWaitPolicy fixed(1.0);
  std::vector<long long> accepted;
  QueryTree query(model, fixed, realization, "sim");
  const FixedTimeRun run =
      query.RunFixedTimeLeaves(order, [&](long long leaf) { accepted.push_back(leaf); });
  EXPECT_EQ(accepted, (std::vector<long long>{0, 2, 3, 4, 5, 7}));
  // Six of eight leaves: both sends leave at 1.0 and reach the root by 1.5.
  EXPECT_EQ(Bits(run.result.quality), Bits(0.75));

  // The same tie case through the list form and one policy at a time.
  const TreeSimulation sim(tree, 4.0);
  Policies policies(1.0);
  std::vector<QueryResult> row(policies.list.size());
  sim.RunQuery(policies.list, realization, row);
  for (size_t p = 0; p < row.size(); ++p) {
    SCOPED_TRACE(policies.list[p]->name());
    ExpectSameQueryResult(row[p], sim.RunQuery(*policies.list[p], realization));
  }
  ExpectSameQueryResult(row.back(), run.result);
}

}  // namespace
}  // namespace cedar
