#include "src/cluster/loaded_runtime.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_runtime.h"
#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/core/wait_optimizer.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/trace/workloads.h"
#include "tests/memo_checking_policy.h"

namespace cedar {
namespace {

LoadedRunConfig BaseConfig() {
  LoadedRunConfig config;
  config.cluster.machines = 20;
  config.cluster.slots_per_machine = 4;  // 80 slots
  config.deadline = 1000.0;
  config.mean_interarrival = 500.0;
  config.num_queries = 20;
  config.seed = 7;
  return config;
}

TEST(LoadedRuntimeTest, ProducesOneQualityPerQuery) {
  auto workload = MakeFacebookWorkload(10, 8);  // 80 tasks per query
  CedarPolicy cedar;
  LoadedRunResult result = RunLoadedCluster(workload, cedar, BaseConfig());
  EXPECT_EQ(result.per_query_quality.size(), 20u);
  for (double quality : result.per_query_quality.values()) {
    EXPECT_GE(quality, 0.0);
    EXPECT_LE(quality, 1.0);
  }
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

TEST(LoadedRuntimeTest, Deterministic) {
  auto workload = MakeFacebookWorkload(10, 8);
  CedarPolicy cedar;
  LoadedRunResult a = RunLoadedCluster(workload, cedar, BaseConfig());
  LoadedRunResult b = RunLoadedCluster(workload, cedar, BaseConfig());
  ASSERT_EQ(a.per_query_quality.size(), b.per_query_quality.size());
  for (size_t i = 0; i < a.per_query_quality.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_query_quality.values()[i], b.per_query_quality.values()[i]);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(LoadedRuntimeTest, HeavierLoadIncreasesQueueDelayAndHurtsQuality) {
  auto workload = MakeFacebookWorkload(10, 8);
  ProportionalSplitPolicy policy;

  LoadedRunConfig light = BaseConfig();
  light.mean_interarrival = 2000.0;
  LoadedRunConfig heavy = BaseConfig();
  heavy.mean_interarrival = 50.0;

  LoadedRunResult light_result = RunLoadedCluster(workload, policy, light);
  LoadedRunResult heavy_result = RunLoadedCluster(workload, policy, heavy);
  EXPECT_GT(heavy_result.mean_queue_delay, light_result.mean_queue_delay);
  EXPECT_GT(heavy_result.utilization, light_result.utilization);
  EXPECT_LT(heavy_result.MeanQuality(), light_result.MeanQuality());
}

TEST(LoadedRuntimeTest, VeryLightLoadMatchesIsolatedQuality) {
  // With inter-arrival times far exceeding the deadline, queries never
  // overlap; queue delay within a query should be 0 (80 slots, 80 tasks)
  // and quality should be healthy.
  auto workload = MakeFacebookWorkload(10, 8);
  CedarPolicy cedar;
  LoadedRunConfig config = BaseConfig();
  config.mean_interarrival = 1e7;
  LoadedRunResult result = RunLoadedCluster(workload, cedar, config);
  EXPECT_DOUBLE_EQ(result.mean_queue_delay, 0.0);
  EXPECT_GT(result.MeanQuality(), 0.4);
}

TEST(LoadedRuntimeTest, SingleQueryMatchesTreeSimulation) {
  // One query with a slot per task never queues, so the loaded engine must
  // agree exactly with the analytic simulator on the same realization. The
  // realization is rebuilt from the engine's RNG order: the arrival gap,
  // then DrawQuery, then Fork for the realization stream.
  auto workload = MakeFacebookWorkload(10, 8);
  LoadedRunConfig config = BaseConfig();
  config.num_queries = 1;
  config.mean_interarrival = 1e7;

  Rng rng(config.seed);
  rng.NextOpenDouble();  // arrival gap
  QueryTruth truth = workload.DrawQuery(rng);
  truth.sequence = DriverQuerySequence(config.seed, 0);
  Rng realization_rng = rng.Fork();
  TreeSpec tree = workload.OfflineTree();
  QueryRealization realization = SampleRealization(tree, truth, realization_rng);
  TreeSimulation sim(tree, config.deadline);

  for (const WaitPolicy* policy : std::initializer_list<const WaitPolicy*>{
           new FixedWaitPolicy(600.0), new ProportionalSplitPolicy(), new CedarPolicy()}) {
    QueryResult expected = sim.RunQuery(*policy, realization);
    LoadedRunResult actual = RunLoadedCluster(workload, *policy, config);
    ASSERT_EQ(actual.per_query_quality.size(), 1u);
    EXPECT_EQ(actual.per_query_quality.values()[0], expected.quality) << policy->name();
    EXPECT_EQ(actual.root_arrivals_in_time, expected.root_arrivals_in_time) << policy->name();
    EXPECT_EQ(actual.root_arrivals_late, expected.root_arrivals_late) << policy->name();
    delete policy;
  }
}

TEST(LoadedRuntimeTest, SingleQueryInWavesMatchesClusterRuntime) {
  // One query on 20 slots for 80 tasks runs in four waves. Without
  // speculation the loaded engine and ClusterRuntime schedule its tasks the
  // same way, so they must agree bit for bit. The arrival gap is far below
  // half an ulp of every event time, so the loaded query's clock matches
  // ClusterRuntime's, which starts at t = 0, to the last bit.
  auto workload = MakeFacebookWorkload(10, 8);
  LoadedRunConfig config = BaseConfig();
  config.cluster.machines = 5;
  config.num_queries = 1;
  config.mean_interarrival = 1e-200;

  Rng rng(config.seed);
  rng.NextOpenDouble();  // arrival gap
  QueryTruth truth = workload.DrawQuery(rng);
  truth.sequence = DriverQuerySequence(config.seed, 0);
  Rng realization_rng = rng.Fork();
  TreeSpec tree = workload.OfflineTree();
  QueryRealization realization = SampleRealization(tree, truth, realization_rng);
  ClusterRuntime cluster(config.cluster, tree, config.deadline);

  for (const WaitPolicy* policy : std::initializer_list<const WaitPolicy*>{
           new FixedWaitPolicy(600.0), new ProportionalSplitPolicy(), new CedarPolicy()}) {
    ClusterQueryResult expected = cluster.RunQuery(*policy, realization);
    EXPECT_EQ(expected.waves, 4);
    LoadedRunResult actual = RunLoadedCluster(workload, *policy, config);
    ASSERT_EQ(actual.per_query_quality.size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.per_query_quality.values()[0]),
              std::bit_cast<uint64_t>(expected.quality))
        << policy->name();
    EXPECT_EQ(actual.root_arrivals_in_time, expected.root_arrivals_in_time) << policy->name();
    EXPECT_EQ(actual.root_arrivals_late, expected.root_arrivals_late) << policy->name();
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.makespan), std::bit_cast<uint64_t>(expected.makespan))
        << policy->name();
    delete policy;
  }
}

TEST(LoadedRuntimeTest, RootCountersCoverEveryTopTierResult) {
  // Every top-tier aggregator of every query reports to the root exactly
  // once, in time or late; heavy load makes more of them late.
  auto workload = MakeFacebookWorkload(10, 8);  // 8 top-tier aggregators
  ProportionalSplitPolicy policy;
  LoadedRunConfig light = BaseConfig();
  light.mean_interarrival = 2000.0;
  LoadedRunConfig heavy = BaseConfig();
  heavy.mean_interarrival = 50.0;

  LoadedRunResult light_result = RunLoadedCluster(workload, policy, light);
  LoadedRunResult heavy_result = RunLoadedCluster(workload, policy, heavy);
  for (const LoadedRunResult* result : {&light_result, &heavy_result}) {
    EXPECT_EQ(result->root_arrivals_in_time + result->root_arrivals_late, 20 * 8);
  }
  EXPECT_GT(light_result.root_arrivals_in_time, 0);
  EXPECT_GT(heavy_result.root_arrivals_late, light_result.root_arrivals_late);
}

TEST(LoadedRuntimeTest, ThreeLevelTreeSupported) {
  std::vector<MetaLogNormalStage> stages;
  for (int i = 0; i < 3; ++i) {
    MetaLogNormalStage stage;
    stage.mu = 2.0;
    stage.sigma = 0.6;
    stage.fanout = 4;
    stages.push_back(stage);
  }
  MetaLogNormalWorkload workload("deep", "s", std::move(stages));
  CedarPolicy cedar;
  LoadedRunConfig config = BaseConfig();
  config.cluster.machines = 16;
  config.cluster.slots_per_machine = 4;  // 64 slots for 64 tasks
  config.deadline = 200.0;
  LoadedRunResult result = RunLoadedCluster(workload, cedar, config);
  EXPECT_EQ(result.per_query_quality.size(), 20u);
  EXPECT_GT(result.MeanQuality(), 0.0);
}

TEST(LoadedRuntimeTest, JobsInFlightKeepSeparateQueryMemos) {
  // Arrivals 50 apart under a 1000 deadline keep many jobs in flight at
  // once. Each job's per-query upper curves give it its own offline waits,
  // so a memo shared between jobs would hand one job another's wait.
  for (int levels : {2, 3}) {
    auto workload =
        levels == 2 ? MakeFacebookWorkload(10, 8) : MakeFacebookThreeLevelWorkload(5, 4, 4);
    LoadedRunConfig config = BaseConfig();
    config.mean_interarrival = 50.0;
    for (int which = 0; which < 2; ++which) {
      auto log = std::make_shared<std::vector<MemoCheck>>();
      std::unique_ptr<WaitPolicy> inner;
      if (which == 0) {
        inner = std::make_unique<CedarPolicy>();
      } else {
        inner = std::make_unique<OfflineOptimalPolicy>();
      }
      MemoCheckingPolicy policy(std::move(inner), log);
      RunLoadedCluster(workload, policy, config);
      std::set<std::pair<const QueryMemo*, int>> memo_tiers;
      std::set<double> tier0_waits;
      for (const MemoCheck& check : *log) {
        ASSERT_NE(check.memo, nullptr);
        ASSERT_EQ(std::bit_cast<uint64_t>(check.got), std::bit_cast<uint64_t>(check.want))
            << policy.name() << " tier " << check.tier << " levels " << levels;
        memo_tiers.insert({check.memo, check.tier});
        if (check.tier == 0) {
          tier0_waits.insert(check.got);
        }
      }
      // Every job's tree is built at its arrival, before any tree runs, so
      // no memo address is reused: one memo tier per (job, tier), and the
      // jobs' waits really differ.
      EXPECT_EQ(memo_tiers.size(), static_cast<size_t>(config.num_queries * (levels - 1)));
      EXPECT_GT(tier0_waits.size(), 1u);
    }
  }
}

TEST(LoadedRuntimeTest, FreshMemoGivesTheDirectOfflineWait) {
  TreeSpec tree = MakeFacebookWorkload(10, 8).OfflineTree();
  const double deadline = 1000.0;
  auto upper = BuildUpperQualityCurves(tree, deadline);
  AggregatorContext ctx;
  ctx.deadline = deadline;
  ctx.fanout = 10;
  ctx.offline_tree = &tree;
  ctx.upper_quality = &upper[1];
  ctx.epsilon = deadline / 400.0;
  for (double start_offset : {0.0, 200.0}) {
    ctx.start_offset = start_offset;
    // The offline wait as computed before the memo existed.
    double today = start_offset + OptimizeWait(*tree.stage(0).duration, ctx.fanout, upper[1],
                                               deadline - start_offset, ctx.epsilon);
    CedarPolicy cedar;
    OfflineOptimalPolicy offline;
    for (WaitPolicy* prototype : {static_cast<WaitPolicy*>(&cedar),
                                  static_cast<WaitPolicy*>(&offline)}) {
      // The first decision on a fresh memo computes the wait and fills the
      // memo; later ones read it.
      QueryMemo memo;
      ctx.memo = &memo;
      auto first = prototype->Clone();
      first->BeginQuery(ctx, nullptr);
      EXPECT_EQ(std::bit_cast<uint64_t>(first->DecideInitialWait(ctx)),
                std::bit_cast<uint64_t>(today))
          << prototype->name();
      ASSERT_NE(memo.tier(0).scan, nullptr);
      EXPECT_EQ(memo.tier(0).scan, &memo.tier(0).own_scan);
      // A later decision reads the memo: without an offline tree, a new
      // offline scan would die.
      AggregatorContext later = ctx;
      later.offline_tree = nullptr;
      auto second = prototype->Clone();
      second->BeginQuery(later, nullptr);
      EXPECT_EQ(std::bit_cast<uint64_t>(second->DecideInitialWait(later)),
                std::bit_cast<uint64_t>(today))
          << prototype->name();
    }
  }
}

TEST(LoadedRuntimeDeathTest, RejectsBadConfig) {
  auto workload = MakeFacebookWorkload(4, 4);
  CedarPolicy cedar;
  LoadedRunConfig config = BaseConfig();
  for (double interarrival : {0.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    config.mean_interarrival = interarrival;
    EXPECT_DEATH(RunLoadedCluster(workload, cedar, config),
                 "LoadedRunConfig::mean_interarrival .* must be finite and > 0")
        << interarrival;
  }
  for (double deadline : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    config = BaseConfig();
    config.deadline = deadline;
    EXPECT_DEATH(RunLoadedCluster(workload, cedar, config), "must be finite and > 0")
        << deadline;
  }
}

// The loaded engine shares the slot scheduler's spec check, so a zero
// factor dies naming the field instead of running zero-length tasks.
TEST(LoadedRuntimeDeathTest, RejectsBadClusterSpec) {
  auto workload = MakeFacebookWorkload(4, 4);
  ProportionalSplitPolicy policy;
  auto run = [&](double fraction, double factor) {
    LoadedRunConfig config = BaseConfig();
    config.cluster.slow_machine_fraction = fraction;
    config.cluster.slow_machine_factor = factor;
    RunLoadedCluster(workload, policy, config);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(run(0.5, 0.0), "slow_machine_factor");
  EXPECT_DEATH(run(0.5, -1.0), "slow_machine_factor");
  EXPECT_DEATH(run(0.5, nan), "slow_machine_factor");
  EXPECT_DEATH(run(2.0, 4.0), "slow_machine_fraction");
  EXPECT_DEATH(run(nan, 4.0), "slow_machine_fraction");
  LoadedRunConfig no_slots = BaseConfig();
  no_slots.cluster.slots_per_machine = 0;
  EXPECT_DEATH(RunLoadedCluster(workload, policy, no_slots), "slots_per_machine must be >= 1");
}

TEST(LoadedRuntimeTest, SlowMachinesLengthenTheRun) {
  // Slots have identities, so a hot spot stretches the tasks placed on it.
  // Placement is seeded from the config, so a run is reproducible.
  auto workload = MakeFacebookWorkload(10, 8);
  ProportionalSplitPolicy policy;
  LoadedRunConfig healthy = BaseConfig();
  LoadedRunConfig spotty = BaseConfig();
  spotty.cluster.slow_machine_fraction = 0.1;
  spotty.cluster.slow_machine_factor = 4.0;
  ASSERT_EQ(spotty.cluster.SlowMachines(), 2);

  LoadedRunResult a = RunLoadedCluster(workload, policy, spotty);
  LoadedRunResult b = RunLoadedCluster(workload, policy, spotty);
  ASSERT_EQ(a.per_query_quality.size(), b.per_query_quality.size());
  for (size_t i = 0; i < a.per_query_quality.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.per_query_quality.values()[i]),
              std::bit_cast<uint64_t>(b.per_query_quality.values()[i]));
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(a.makespan), std::bit_cast<uint64_t>(b.makespan));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.utilization), std::bit_cast<uint64_t>(b.utilization));

  LoadedRunResult base = RunLoadedCluster(workload, policy, healthy);
  EXPECT_GT(a.makespan, base.makespan);
  EXPECT_LE(a.utilization, 1.0 + 1e-9);
}

}  // namespace
}  // namespace cedar
