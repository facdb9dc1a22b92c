#include "src/sim/tree_simulation.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/policies.h"

namespace cedar {
namespace {

TreeSpec SmallTree() {
  return TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), 4,
                            std::make_shared<LogNormalDistribution>(2.0, 0.5), 3);
}

QueryTruth TruthOf(const TreeSpec& tree) {
  QueryTruth truth;
  truth.sequence = 1;
  for (const auto& stage : tree.stages()) {
    truth.stage_durations.push_back(stage.duration);
  }
  return truth;
}

// Hand-built realization for a 2x2 tree so outcomes are exactly computable.
QueryRealization HandRealization(const TreeSpec& tree, std::vector<double> leaf,
                                 std::vector<double> ship) {
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.stage_durations = {std::move(leaf), std::move(ship)};
  return realization;
}

TEST(TreeSimulationTest, FixedWaitHandComputable) {
  // 2 aggregators x 2 processes, deadline 100.
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), 2,
                                     std::make_shared<LogNormalDistribution>(2.0, 0.5), 2);
  TreeSimulation sim(tree, 100.0);
  // Aggregator 0: leaves at 5 and 50; aggregator 1: leaves at 10 and 20.
  // Ships take 30 and 200.
  auto realization = HandRealization(tree, {5.0, 50.0, 10.0, 20.0}, {30.0, 200.0});

  // Wait = 25: agg0 collects only the first leaf (1 output), sends at 25,
  // arrives 55 <= 100 -> included. agg1 collects both by 20, sends early at
  // 20, arrives 220 > 100 -> dropped. Quality = 1/4.
  FixedWaitPolicy wait25(25.0);
  QueryResult result = sim.RunQuery(wait25, realization);
  EXPECT_DOUBLE_EQ(result.quality, 0.25);
  EXPECT_EQ(result.root_arrivals_in_time, 1);
  EXPECT_EQ(result.root_arrivals_late, 1);

  // Wait = 60: agg0 has both by 50 (sends early at 50), arrives 80 ->
  // included (2 outputs). agg1 still misses. Quality = 2/4.
  FixedWaitPolicy wait60(60.0);
  result = sim.RunQuery(wait60, realization);
  EXPECT_DOUBLE_EQ(result.quality, 0.5);
  EXPECT_DOUBLE_EQ(result.mean_tier0_send_time, (50.0 + 20.0) / 2.0);
}

TEST(TreeSimulationTest, DeterministicReplay) {
  TreeSpec tree = SmallTree();
  TreeSimulation sim(tree, 60.0);
  Rng rng(9);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  CedarPolicy cedar;
  QueryResult a = sim.RunQuery(cedar, realization);
  QueryResult b = sim.RunQuery(cedar, realization);
  EXPECT_DOUBLE_EQ(a.quality, b.quality);
  EXPECT_EQ(a.root_arrivals_in_time, b.root_arrivals_in_time);
  EXPECT_DOUBLE_EQ(a.mean_tier0_send_time, b.mean_tier0_send_time);
}

TEST(TreeSimulationTest, GenerousDeadlineGivesFullQuality) {
  TreeSpec tree = SmallTree();
  TreeSimulation sim(tree, 1e6);
  Rng rng(10);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  for (const WaitPolicy* policy :
       std::initializer_list<const WaitPolicy*>{new ProportionalSplitPolicy(), new CedarPolicy(),
                                                new OraclePolicy()}) {
    QueryResult result = sim.RunQuery(*policy, realization);
    EXPECT_DOUBLE_EQ(result.quality, 1.0) << policy->name();
    delete policy;
  }
}

TEST(TreeSimulationTest, ZeroWaitStillShipsEmptyResults) {
  TreeSpec tree = SmallTree();
  TreeSimulation sim(tree, 60.0);
  Rng rng(11);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  FixedWaitPolicy zero(0.0);
  QueryResult result = sim.RunQuery(zero, realization);
  // Aggregators send empty results immediately; quality 0 but all root
  // arrivals happen (possibly late).
  EXPECT_DOUBLE_EQ(result.quality, 0.0);
  EXPECT_EQ(result.root_arrivals_in_time + result.root_arrivals_late, 3);
}

TEST(TreeSimulationTest, WeightedQualityUsesWeights) {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), 2,
                                     std::make_shared<LogNormalDistribution>(2.0, 0.5), 1);
  TreeSimulation sim(tree, 100.0);
  auto realization = HandRealization(tree, {5.0, 50.0}, {10.0});
  realization.leaf_weights = {9.0, 1.0};
  // Wait 25 collects only the first (weight 9) of total 10.
  FixedWaitPolicy wait25(25.0);
  QueryResult result = sim.RunQuery(wait25, realization);
  EXPECT_DOUBLE_EQ(result.quality, 0.9);
  EXPECT_DOUBLE_EQ(result.total_weight, 10.0);
}

TEST(TreeSimulationTest, WeightsSummedInArrivalOrderPassTheWeightCheck) {
  // Every leaf reaches the root, so the included weight is the total summed
  // in arrival order through the tiers instead of in index order. With
  // weights over 16 decades the two sums differ by rounding on some seeds;
  // Result() must allow that and nothing more.
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<LogNormalDistribution>(1.5, 0.6), 8);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(1.8, 0.5), 8);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(1.6, 0.4), 4);
  TreeSpec tree(std::move(stages));
  TreeSimulation sim(tree, 1e6);
  FixedWaitPolicy wait(5e5);  // every aggregator sends once all children report
  int rounded = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    auto realization = SampleRealization(tree, TruthOf(tree), rng);
    for (size_t leaf = 0; leaf < realization.stage_durations[0].size(); ++leaf) {
      realization.leaf_weights.push_back(std::pow(10.0, 16.0 * rng.NextDouble() - 8.0));
    }
    QueryResult result = sim.RunQuery(wait, realization);
    EXPECT_NEAR(result.quality, 1.0, 1e-13) << "seed " << seed;
    rounded += result.included_weight != result.total_weight ? 1 : 0;
  }
  EXPECT_GT(rounded, 0);
}

TEST(TreeSimulationDeathTest, IncludedWeightOutsideTheTotalDies) {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), 2,
                                     std::make_shared<LogNormalDistribution>(2.0, 0.5), 1);
  TreeSimulation sim(tree, 100.0);
  auto realization = HandRealization(tree, {5.0, 50.0}, {10.0});
  realization.leaf_weights = {-1.0, 2.0};  // weights must be >= 0
  FixedWaitPolicy wait25(25.0);
  EXPECT_DEATH(sim.RunQuery(wait25, realization), "included weight -1 outside");
}

TEST(TreeSimulationTest, ThreeLevelTreeRuns) {
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<LogNormalDistribution>(1.5, 0.6), 3);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(1.8, 0.5), 3);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(1.6, 0.4), 2);
  TreeSpec tree(std::move(stages));
  TreeSimulation sim(tree, 60.0);
  Rng rng(12);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  CedarPolicy cedar;
  QueryResult result = sim.RunQuery(cedar, realization);
  EXPECT_GE(result.quality, 0.0);
  EXPECT_LE(result.quality, 1.0);
  EXPECT_EQ(result.total_weight, 18.0);
}

TEST(TreeSimulationTest, PerQueryKnowledgeFlagChangesDecisions) {
  TreeSpec tree = SmallTree();
  TreeSimulationOptions with;
  TreeSimulationOptions without;
  without.per_query_upper_knowledge = false;
  TreeSimulation sim_with(tree, 60.0, with);
  TreeSimulation sim_without(tree, 60.0, without);

  // A query whose stages are much slower than the offline belief: the
  // bottom so slow that the wait binds (no early send), the upper slow
  // enough that knowing it forces an earlier send.
  QueryTruth truth = TruthOf(tree);
  truth.sequence = 7;
  truth.stage_durations[0] = std::make_shared<LogNormalDistribution>(4.5, 0.5);
  truth.stage_durations[1] = std::make_shared<LogNormalDistribution>(3.5, 0.5);
  Rng rng(13);
  auto realization = SampleRealization(tree, truth, rng);

  OfflineOptimalPolicy policy;
  QueryResult a = sim_with.RunQuery(policy, realization);
  QueryResult b = sim_without.RunQuery(policy, realization);
  // With knowledge of the slow upper stage the policy backs off earlier.
  EXPECT_LT(a.mean_tier0_send_time, b.mean_tier0_send_time);
}

TEST(TreeSimulationDeathTest, MismatchedRealizationDies) {
  TreeSpec tree = SmallTree();
  TreeSimulation sim(tree, 60.0);
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.stage_durations = {{1.0}};  // wrong stage count
  FixedWaitPolicy policy(1.0);
  EXPECT_DEATH(sim.RunQuery(policy, realization), "");
}

}  // namespace
}  // namespace cedar
