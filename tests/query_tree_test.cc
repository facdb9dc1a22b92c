// QueryTree's per-query work: which curves a query folds, and what its
// QueryMemo computes once — one scan grid, offline scan and wait-table get
// per tier, one Ideal plan per query; the scan grid and offline scan once
// per model under offline upper knowledge — without changing any wait.

#include "src/sim/query_tree.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/analytics_service.h"
#include "src/cluster/cluster_runtime.h"
#include "src/core/policies.h"
#include "src/core/policy_registry.h"
#include "src/core/wait_table_store.h"
#include "src/obs/profiler.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/trace/workloads.h"
#include "tests/memo_checking_policy.h"

namespace cedar {
namespace {

constexpr double kDeadline = 1000.0;

int64_t ProfileCalls(const std::string& name) {
  for (const ProfileSample& sample : CollectProfileSamples()) {
    if (sample.name == name) {
      return sample.calls;
    }
  }
  return 0;
}

MetaLogNormalWorkload WorkloadWithLevels(int levels) {
  return levels == 2 ? MakeFacebookWorkload(6, 5) : MakeFacebookThreeLevelWorkload(4, 3, 3);
}

QueryRealization DrawRealization(const Workload& workload, uint64_t sequence) {
  Rng rng(sequence);
  QueryTruth truth = workload.DrawQuery(rng);
  truth.sequence = sequence;
  return SampleRealization(workload.OfflineTree(), truth, rng);
}

// TreeSimulation and ClusterRuntime (two waves on 4x slow machines, with
// speculation) over one offline tree. Under offline upper knowledge every
// query's tiers share the engine model's tier scans.
class Engines {
 public:
  Engines(const TreeSpec& tree, bool per_query_upper_knowledge)
      : sim_(tree, kDeadline, Options<TreeSimulationOptions>(per_query_upper_knowledge)),
        cluster_(Cluster(tree), tree, kDeadline,
                 Options<ClusterRunOptions>(per_query_upper_knowledge)) {}

  static constexpr const char* kNames[] = {"sim", "cluster"};

  void RunQuery(int engine, const WaitPolicy& policy, const QueryRealization& realization) const {
    if (engine == 0) {
      sim_.RunQuery(policy, realization);
    } else {
      cluster_.RunQuery(policy, realization);
    }
  }

 private:
  template <typename T>
  static T Options(bool per_query_upper_knowledge) {
    T options;
    options.per_query_upper_knowledge = per_query_upper_knowledge;
    if constexpr (std::is_same_v<T, ClusterRunOptions>) {
      options.speculation.enabled = true;
    }
    return options;
  }
  static ClusterSpec Cluster(const TreeSpec& tree) {
    ClusterSpec cluster;
    cluster.slots_per_machine = 1;
    cluster.machines = static_cast<int>((StageEdgeCount(tree, 0) + 1) / 2);
    cluster.slow_machine_fraction = 0.25;
    cluster.slow_machine_factor = 4.0;
    return cluster;
  }

  TreeSimulation sim_;
  ClusterRuntime cluster_;
};

// Profiling is process-global: every test starts and ends with it off and
// zeroed.
class QueryTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetProfilingEnabled(false);
    ResetProfile();
  }
  void TearDown() override {
    SetProfilingEnabled(false);
    ResetProfile();
  }
};

TEST_F(QueryTreeTest, FoldsOnlyTheStagesAboveTierZero) {
  // The engine's offline curves and each query's per-query curves skip the
  // stage-0 fold: a 2-level tree folds nothing, a 3-level tree folds stage 1.
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    QueryRealization realization = DrawRealization(workload, 11);
    ProportionalSplitPolicy policy;

    TreeSimulationOptions options;
    options.per_query_upper_knowledge = true;
    SetProfilingEnabled(true);
    TreeSimulation sim(workload.OfflineTree(), kDeadline, options);
    EXPECT_EQ(ProfileCalls("quality.fold_stage"), levels - 2) << "offline, levels " << levels;

    ResetProfile();
    sim.RunQuery(policy, realization);
    EXPECT_EQ(ProfileCalls("quality.fold_stage"), levels - 2) << "per query, levels " << levels;
    SetProfilingEnabled(false);
    ResetProfile();
  }
}

TEST_F(QueryTreeTest, EachTreeSimulationQueryIsOneFixedTimeRun) {
  // The DES profile site times a whole fixed-time run, policy decisions
  // inside it included: N queries record exactly N calls, and no query
  // runs the cluster engines' slot dispatch.
  constexpr int kQueries = 5;
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    TreeSimulation sim(workload.OfflineTree(), kDeadline);
    CedarPolicy cedar;
    SetProfilingEnabled(true);
    for (int q = 0; q < kQueries; ++q) {
      sim.RunQuery(cedar, DrawRealization(workload, 20 + static_cast<uint64_t>(q)));
    }
    EXPECT_EQ(ProfileCalls("sim.fixed_time_run"), kQueries) << "levels " << levels;
    EXPECT_EQ(ProfileCalls("cluster.slot_dispatch"), 0) << "levels " << levels;
    EXPECT_GT(ProfileCalls("wait_optimizer.optimize_wait"), 0) << "levels " << levels;
    SetProfilingEnabled(false);
    ResetProfile();
  }
}

TEST_F(QueryTreeTest, AnAppQueryIsOneFixedTimeRunToo) {
  // The apps replay their leaves through the same queue-free runner.
  FactTableSpec spec;
  spec.rows = 4000;
  spec.num_groups = 4;
  spec.num_partitions = 20;
  spec.seed = 5;
  const FactTable table(spec);
  const TreeSpec tree =
      TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.5, 0.8), 10,
                         std::make_shared<LogNormalDistribution>(2.0, 0.6), 2);
  AnalyticsServiceConfig config;
  config.deadline = 40.0;
  const AnalyticsService service(&table, tree, config);
  QueryTruth truth;
  truth.sequence = 1;
  truth.stage_durations = {tree.stage(0).duration, tree.stage(1).duration};
  Rng rng(3);
  const QueryRealization realization = SampleRealization(tree, truth, rng);
  CedarPolicy cedar;
  SetProfilingEnabled(true);
  service.RunQuery(cedar, realization);
  EXPECT_EQ(ProfileCalls("sim.fixed_time_run"), 1);
  EXPECT_EQ(ProfileCalls("cluster.slot_dispatch"), 0);
}

TEST_F(QueryTreeTest, OneOfflineScanPerTierBeforeAnyLeaf) {
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    QueryTreeModel model(workload.OfflineTree(), kDeadline, QueryTreeOptions{});
    QueryRealization realization = DrawRealization(workload, 12);
    CedarPolicy cedar;
    OfflineOptimalPolicy offline;
    for (const WaitPolicy* policy : {static_cast<const WaitPolicy*>(&cedar),
                                     static_cast<const WaitPolicy*>(&offline)}) {
      SetProfilingEnabled(true);
      QueryTree tree(model, *policy, realization, "sim");
      tree.Start();
      EXPECT_EQ(ProfileCalls("wait_optimizer.optimize_wait"), levels - 1)
          << policy->name() << ", levels " << levels;
      SetProfilingEnabled(false);
      ResetProfile();
    }
  }
}

TEST_F(QueryTreeTest, CedarBuildsOneScanGridPerTier) {
  // Every tier-0 aggregator re-optimizes on its arrivals, and every tier's
  // aggregators share the tier's grid.
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    TreeSimulation sim(workload.OfflineTree(), kDeadline);
    CedarPolicy cedar;
    SetProfilingEnabled(true);
    sim.RunQuery(cedar, DrawRealization(workload, 13));
    EXPECT_EQ(ProfileCalls("wait_optimizer.scan_build"), levels - 1) << "levels " << levels;
    EXPECT_GT(ProfileCalls("wait_optimizer.optimize_wait"), 2 * (levels - 1))
        << "levels " << levels << ": tier-0 aggregators must re-optimize";
    SetProfilingEnabled(false);
    ResetProfile();
  }
}

TEST_F(QueryTreeTest, WaitTableIsFetchedOncePerLearningTier) {
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    CedarPolicyOptions options;
    options.use_wait_table = true;
    options.table_spec.location_min = 3.0;
    options.table_spec.location_max = 7.0;
    options.table_spec.location_points = 5;
    options.table_spec.scale_min = 0.3;
    options.table_spec.scale_max = 1.5;
    options.table_spec.scale_points = 4;
    CedarPolicy cedar(options);
    WaitTableStore store;
    TreeSimulationOptions sim_options;
    sim_options.table_store = &store;
    TreeSimulation sim(workload.OfflineTree(), 10 * kDeadline, sim_options);
    // Only tier 0 learns, so each query fetches one table whatever the depth.
    for (long long q = 1; q <= 3; ++q) {
      sim.RunQuery(cedar, DrawRealization(workload, 20 + static_cast<uint64_t>(q)));
      EXPECT_EQ(store.GetStats().Gets(), q) << "levels " << levels << ", query " << q;
    }
  }
}

TEST_F(QueryTreeTest, IdealPlansOncePerQueryWhateverItsSequence) {
  // Sequence 0 ("unassigned") and a repeated sequence plan like any other.
  auto workload = WorkloadWithLevels(3);
  TreeSimulation sim(workload.OfflineTree(), kDeadline);
  OraclePolicy ideal;
  for (uint64_t sequence : {0, 7, 7}) {
    QueryRealization realization = DrawRealization(workload, 14);
    realization.truth.sequence = sequence;
    SetProfilingEnabled(true);
    sim.RunQuery(ideal, realization);
    EXPECT_EQ(ProfileCalls("wait_optimizer.plan_tree"), 1) << "sequence " << sequence;
    SetProfilingEnabled(false);
    ResetProfile();
  }
}

TEST_F(QueryTreeTest, EveryNodeInitialWaitMatchesFreshMemoInstance) {
  // Under offline upper knowledge the waits come from the model's tier
  // scans, built by whichever query asked first; the fresh instance builds
  // its own on its own memo.
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    const TreeSpec& tree = workload.OfflineTree();
    long long nodes = 0;
    for (int tier = 0; tier < tree.num_aggregator_tiers(); ++tier) {
      nodes += StageEdgeCount(tree, tier + 1);
    }
    for (bool per_query : {true, false}) {
      for (int engine = 0; engine < 2; ++engine) {
        for (const char* name : {"cedar", "cedar-offline"}) {
          const Engines engines(tree, per_query);
          auto log = std::make_shared<std::vector<MemoCheck>>();
          MemoCheckingPolicy policy(MakePolicyByName(name), log);
          for (uint64_t q = 1; q <= 3; ++q) {
            engines.RunQuery(engine, policy, DrawRealization(workload, 100 + q));
          }
          // Every node, plus the scratch plan of each tier below the top.
          ASSERT_EQ(log->size(), 3u * static_cast<size_t>(nodes + levels - 2));
          for (const MemoCheck& check : *log) {
            ASSERT_NE(check.memo, nullptr);
            ASSERT_EQ(std::bit_cast<uint64_t>(check.got), std::bit_cast<uint64_t>(check.want))
                << name << " on " << Engines::kNames[engine] << ", per-query knowledge "
                << per_query << ", tier " << check.tier << ", levels " << levels;
          }
        }
      }
    }
  }
}

TEST_F(QueryTreeTest, OfflineKnowledgeBuildsEachTierScanOncePerModel) {
  // Cedar's tiers each start at a fixed offset under offline knowledge, so
  // 20 queries build one scan grid per tier between them, not one per query.
  for (int levels : {2, 3}) {
    auto workload = WorkloadWithLevels(levels);
    for (int engine = 0; engine < 2; ++engine) {
      const Engines engines(workload.OfflineTree(), /*per_query_upper_knowledge=*/false);
      CedarPolicy cedar;
      SetProfilingEnabled(true);
      for (uint64_t q = 1; q <= 20; ++q) {
        engines.RunQuery(engine, cedar, DrawRealization(workload, 300 + q));
      }
      EXPECT_EQ(ProfileCalls("wait_optimizer.scan_build"), levels - 1)
          << Engines::kNames[engine] << ", levels " << levels;
      SetProfilingEnabled(false);
      ResetProfile();
    }
  }
}

}  // namespace
}  // namespace cedar
