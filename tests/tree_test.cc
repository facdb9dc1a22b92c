#include "src/core/tree.h"

#include <gtest/gtest.h>

namespace cedar {
namespace {

TreeSpec MakeTree() {
  return TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.77, 0.84), 50,
                            std::make_shared<LogNormalDistribution>(3.25, 0.95), 40);
}

TEST(TreeSpecTest, TwoLevelShape) {
  TreeSpec tree = MakeTree();
  EXPECT_EQ(tree.num_stages(), 2);
  EXPECT_EQ(tree.num_aggregator_tiers(), 1);
  EXPECT_EQ(tree.stage(0).fanout, 50);
  EXPECT_EQ(tree.stage(1).fanout, 40);
  EXPECT_EQ(tree.TotalProcesses(), 2000);
}

TEST(TreeSpecTest, ThreeLevelCounts) {
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), 10);
  stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), 5);
  stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), 4);
  TreeSpec tree(std::move(stages));
  EXPECT_EQ(tree.num_aggregator_tiers(), 2);
  EXPECT_EQ(tree.TotalProcesses(), 200);
}

TEST(TreeSpecTest, SumOfStageMeans) {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<ExponentialDistribution>(0.5), 2,
                                     std::make_shared<ExponentialDistribution>(0.25), 2);
  EXPECT_DOUBLE_EQ(tree.SumOfStageMeans(), 6.0);
}

TEST(TreeSpecTest, ToStringMentionsStages) {
  std::string s = MakeTree().ToString();
  EXPECT_NE(s.find("X1"), std::string::npos);
  EXPECT_NE(s.find("k2=40"), std::string::npos);
}

TEST(TreeSpecDeathTest, RejectsEmptyAndBadFanout) {
  EXPECT_DEATH(TreeSpec(std::vector<StageSpec>{}), "at least one stage");
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), 0);
  EXPECT_DEATH(TreeSpec(std::move(stages)), "fanout");
}

TEST(TreeSpecDeathTest, StageIndexOutOfRange) {
  TreeSpec tree = MakeTree();
  EXPECT_DEATH(tree.stage(2), "out of range");
}

}  // namespace
}  // namespace cedar
