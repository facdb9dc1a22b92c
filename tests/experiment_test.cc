#include "src/sim/experiment.h"

#include <limits>

#include <gtest/gtest.h>

#include "src/core/policies.h"
#include "src/sim/workload.h"

namespace cedar {
namespace {

StationaryWorkload SmallWorkload() {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.9), 8,
                                     std::make_shared<LogNormalDistribution>(2.0, 0.6), 6);
  return StationaryWorkload("test", "s", std::move(tree));
}

ExperimentConfig SmallConfig(double deadline = 40.0, int queries = 20) {
  ExperimentConfig config;
  config.deadline = deadline;
  config.num_queries = queries;
  config.seed = 99;
  return config;
}

TEST(ExperimentTest, IdenticalPoliciesGetIdenticalResults) {
  // Two FixedWait policies with the same wait but different identities would
  // collide on name, so compare a policy against itself across two runs.
  StationaryWorkload workload = SmallWorkload();
  FixedWaitPolicy fixed(15.0);
  auto r1 = RunExperiment(workload, {&fixed}, SmallConfig());
  auto r2 = RunExperiment(workload, {&fixed}, SmallConfig());
  ASSERT_EQ(r1.outcomes[0].quality.size(), r2.outcomes[0].quality.size());
  for (size_t i = 0; i < r1.outcomes[0].quality.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.outcomes[0].quality.values()[i], r2.outcomes[0].quality.values()[i]);
  }
}

TEST(ExperimentTest, PoliciesSeeIdenticalRealizations) {
  // The fixed policy's per-query qualities must be identical whether it
  // runs alone or alongside other policies: realizations are drawn once per
  // query, independent of the policy set.
  StationaryWorkload workload = SmallWorkload();
  FixedWaitPolicy fixed(20.0);
  CedarPolicy cedar;
  auto together = RunExperiment(workload, {&fixed, &cedar}, SmallConfig());
  auto alone = RunExperiment(workload, {&fixed}, SmallConfig());
  const auto& a = together.Outcome("fixed").quality.values();
  const auto& b = alone.Outcome("fixed").quality.values();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "query " << i;
  }
}

TEST(ExperimentDeathTest, DuplicatePolicyNamesDie) {
  StationaryWorkload workload = SmallWorkload();
  FixedWaitPolicy a(1.0);
  FixedWaitPolicy b(2.0);
  EXPECT_DEATH(RunExperiment(workload, {&a, &b}, SmallConfig()), "duplicate policy name");
}

TEST(ExperimentDeathTest, NonFiniteDeadlineDies) {
  StationaryWorkload workload = SmallWorkload();
  FixedWaitPolicy policy(1.0);
  for (double deadline : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    ExperimentConfig config = SmallConfig();
    config.deadline = deadline;
    EXPECT_DEATH(RunExperiment(workload, {&policy}, config), "must be finite and > 0")
        << deadline;
  }
}

TEST(ExperimentTest, OutcomeLookupAndImprovement) {
  StationaryWorkload workload = SmallWorkload();
  ProportionalSplitPolicy baseline;
  CedarPolicy cedar;
  auto result = RunExperiment(workload, {&baseline, &cedar}, SmallConfig());
  EXPECT_EQ(result.Outcome("cedar").policy_name, "cedar");
  EXPECT_EQ(result.Outcome("prop-split").quality.size(), 20u);
  double imp = result.ImprovementPercent("prop-split", "cedar");
  EXPECT_GT(imp, -100.0);
}

TEST(ExperimentTest, PerQueryImprovementFiltersLowBaseline) {
  StationaryWorkload workload = SmallWorkload();
  ProportionalSplitPolicy baseline;
  OraclePolicy ideal;
  // Absurdly tight deadline: most baseline qualities ~0 get filtered.
  auto result = RunExperiment(workload, {&baseline, &ideal}, SmallConfig(2.0));
  auto improvements = result.PerQueryImprovementPercent("prop-split", "ideal", 0.05);
  EXPECT_LE(improvements.size(), result.Outcome("ideal").quality.size());
}

TEST(ExperimentTest, SameSeedSameTruths) {
  StationaryWorkload workload = SmallWorkload();
  OraclePolicy ideal;
  auto r1 = RunExperiment(workload, {&ideal}, SmallConfig());
  auto r2 = RunExperiment(workload, {&ideal}, SmallConfig());
  EXPECT_DOUBLE_EQ(r1.Outcome("ideal").MeanQuality(), r2.Outcome("ideal").MeanQuality());
}

TEST(ExperimentDeathTest, UnknownOutcomeDies) {
  StationaryWorkload workload = SmallWorkload();
  CedarPolicy cedar;
  auto result = RunExperiment(workload, {&cedar}, SmallConfig(40.0, 2));
  EXPECT_DEATH(result.Outcome("nope"), "no outcome");
}

TEST(PercentImprovementTest, Math) {
  EXPECT_DOUBLE_EQ(PercentImprovement(0.5, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(PercentImprovement(0.8, 0.6), -25.0);
  EXPECT_DEATH(PercentImprovement(0.0, 0.5), "positive");
}

}  // namespace
}  // namespace cedar
