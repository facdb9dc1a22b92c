// The curves the engines build instead of the full stack: the upper curves
// [1, n) and the pointwise full-tree q_n(x), each bitwise equal to the
// matching read of BuildQualityCurveStack.

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/quality.h"
#include "src/core/wait_optimizer.h"
#include "src/stats/rng.h"
#include "tests/test_distributions.h"

namespace cedar {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// A |levels|-stage tree with |bottom| at stage 0 and the stages above drawn
// from |uppers|, starting at |first_upper|.
TreeSpec MakeTree(int levels, const std::shared_ptr<const Distribution>& bottom, int fanout,
                  const std::vector<std::shared_ptr<const Distribution>>& uppers,
                  size_t first_upper) {
  std::vector<StageSpec> stages;
  stages.emplace_back(bottom, fanout);
  for (int i = 1; i < levels; ++i) {
    stages.emplace_back(uppers[(first_upper + static_cast<size_t>(i)) % uppers.size()],
                        1 + (fanout + i) % 7);
  }
  return TreeSpec(std::move(stages));
}

// True when PiecewiseLinear reads two samples at x = D on the grid [0, D]:
// D / h rounds below steps.
bool DeadlineSplitsGridCell(double deadline, const QualityGridOptions& options) {
  return static_cast<size_t>(deadline / options.Epsilon(deadline)) <
         static_cast<size_t>(options.steps);
}

QualityGridOptions OddGrid() {
  QualityGridOptions odd;
  odd.steps = 150;
  return odd;
}

TEST(UpperCurvesTest, MatchFullStackBitwise) {
  Rng rng(20161018);
  for (const QualityGridOptions& options : {QualityGridOptions{}, OddGrid()}) {
    double deadline = 1.0 + 999.0 * rng.NextDouble();
    auto bottoms = OneOfEachFamily(rng, deadline);
    auto uppers = OneOfEachFamily(rng, deadline);
    for (int levels : {2, 3, 4}) {
      for (size_t f = 0; f < bottoms.size(); ++f) {
        TreeSpec tree = MakeTree(levels, bottoms[f], 50, uppers, f);
        auto upper = BuildUpperQualityCurves(tree, deadline, options);
        auto full = BuildQualityCurveStack(tree, deadline, options);
        ASSERT_EQ(upper.size(), full.size());
        EXPECT_TRUE(upper[0].ys().empty());
        for (size_t i = 1; i < upper.size(); ++i) {
          ASSERT_EQ(upper[i].ys().size(), full[i].ys().size());
          for (size_t g = 0; g < upper[i].ys().size(); ++g) {
            ASSERT_EQ(Bits(upper[i].ys()[g]), Bits(full[i].ys()[g]))
                << bottoms[f]->ToString() << " levels " << levels << " stage " << i
                << " grid point " << g;
          }
        }
      }
    }
  }
}

TEST(UpperCurvesTest, SingleStageTreeHasNoUpperCurves) {
  TreeSpec tree({StageSpec(std::make_shared<ExponentialDistribution>(0.1), 4)});
  auto upper = BuildUpperQualityCurves(tree, 100.0);
  ASSERT_EQ(upper.size(), 1u);
  EXPECT_TRUE(upper[0].ys().empty());
  EXPECT_EQ(Bits(MaxExpectedQuality(tree, 100.0)),
            Bits(BuildQualityCurveStack(tree, 100.0)[0](100.0)));
}

TEST(UpperCurvesDeathTest, EvaluatingIndexZeroDies) {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<ExponentialDistribution>(0.1), 10,
                                     std::make_shared<ExponentialDistribution>(0.2), 10);
  auto upper = BuildUpperQualityCurves(tree, 100.0);
  EXPECT_DEATH(upper[0](50.0), "evaluating empty PiecewiseLinear");
}

TEST(FullTreeQualityAtTest, MatchesFullCurveBitwise) {
  // Every family at stage 0, 2- to 4-level trees, two grids, and deadlines
  // on both sides of the rounding of D / h: the pointwise fold must read the
  // same samples the full curve interpolates.
  struct Case {
    QualityGridOptions options;
    std::vector<double> deadlines;
  };
  // Per grid, deadlines where D / h rounds below steps and where
  // it does not.
  const std::vector<Case> cases = {{QualityGridOptions{}, {137.0, 1000.0, 55.5}},
                                   {OddGrid(), {77.5, 100.0, 649.0}}};
  Rng rng(20161019);
  int split_cells = 0;
  int exact_cells = 0;
  for (const Case& c : cases) {
    const QualityGridOptions& options = c.options;
    for (int trial = 0; trial < static_cast<int>(c.deadlines.size()); ++trial) {
      double deadline = c.deadlines[static_cast<size_t>(trial)];
      if (DeadlineSplitsGridCell(deadline, options)) {
        ++split_cells;
      } else {
        ++exact_cells;
      }
      auto bottoms = OneOfEachFamily(rng, deadline);
      auto uppers = OneOfEachFamily(rng, deadline);
      for (int levels : {2, 3, 4}) {
        for (size_t f = 0; f < bottoms.size(); ++f) {
          TreeSpec tree = MakeTree(levels, bottoms[f], 1 + 17 * trial, uppers, f + 1);
          auto upper = BuildUpperQualityCurves(tree, deadline, options);
          auto full = BuildQualityCurveStack(tree, deadline, options);
          for (double x : {deadline, 0.0, 0.3 * deadline, deadline * (1.0 - 1e-15),
                           1.5 * deadline}) {
            ASSERT_EQ(Bits(FullTreeQualityAt(tree, upper, deadline, x, options)),
                      Bits(full[0](x)))
                << bottoms[f]->ToString() << " levels " << levels << " deadline " << deadline
                << " x " << x;
          }
          ASSERT_EQ(Bits(MaxExpectedQuality(tree, deadline, options)),
                    Bits(full[0](deadline)));
        }
      }
    }
  }
  // Both branches of the interpolation at x = D ran on each grid.
  EXPECT_EQ(split_cells, 4);
  EXPECT_EQ(exact_cells, 2);
}

}  // namespace
}  // namespace cedar
