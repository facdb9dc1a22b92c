#include "src/stats/order_statistics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/stats/normal_math.h"

namespace cedar {
namespace {

TEST(ExactScoreTest, SingleSampleHasZeroMean) {
  EXPECT_NEAR(ExactNormalScore(1, 1), 0.0, 1e-9);
}

TEST(ExactScoreTest, PairMatchesClosedForm) {
  // E[max of 2 standard normals] = 1/sqrt(pi).
  double expected = 1.0 / std::sqrt(M_PI);
  EXPECT_NEAR(ExactNormalScore(2, 2), expected, 1e-8);
  EXPECT_NEAR(ExactNormalScore(1, 2), -expected, 1e-8);
}

TEST(ExactScoreTest, TripleMatchesClosedForm) {
  // E[max of 3] = 1.5/sqrt(pi).
  EXPECT_NEAR(ExactNormalScore(3, 3), 1.5 / std::sqrt(M_PI), 1e-8);
  EXPECT_NEAR(ExactNormalScore(2, 3), 0.0, 1e-9);
}

TEST(ExactScoreTest, SymmetryAndMonotonicity) {
  for (int k : {4, 10, 50, 200}) {
    double prev = -1e9;
    for (int i = 1; i <= k; ++i) {
      double score = ExactNormalScore(i, k);
      EXPECT_NEAR(score, -ExactNormalScore(k + 1 - i, k), 1e-9) << "i=" << i << " k=" << k;
      EXPECT_GT(score, prev) << "scores must be strictly increasing, i=" << i << " k=" << k;
      prev = score;
    }
  }
}

TEST(ExactScoreTest, SumOfScoresIsZero) {
  for (int k : {2, 7, 50}) {
    double sum = 0.0;
    for (int i = 1; i <= k; ++i) {
      sum += ExactNormalScore(i, k);
    }
    EXPECT_NEAR(sum, 0.0, 1e-8) << "k=" << k;
  }
}

TEST(ExactScoreTest, BlomIsCloseForModerateK) {
  // Blom's approximation Phi^{-1}((i - 0.375) / (k + 0.25)) is within ~1%.
  for (int k : {10, 50, 100}) {
    for (int i = 1; i <= k; ++i) {
      double blom = NormalQuantile((i - 0.375) / (k + 0.25));
      EXPECT_NEAR(ExactNormalScore(i, k), blom, 0.02) << "i=" << i << " k=" << k;
    }
  }
}

TEST(ExactScoreTest, MatchesMonteCarlo) {
  const int k = 50;
  auto mc = MonteCarloNormalScores(k, 40000, 7);
  for (int i = 1; i <= k; ++i) {
    EXPECT_NEAR(ExactNormalScore(i, k), mc[static_cast<size_t>(i - 1)], 0.02)
        << "i=" << i;
  }
}

TEST(ScoreTableTest, CachedTableMatchesDirectComputation) {
  NormalOrderScoreTable::ClearCacheForTesting();
  const auto& table = NormalOrderScoreTable::Get(25);
  ASSERT_EQ(table.size(), 25u);
  for (int i = 1; i <= 25; ++i) {
    EXPECT_DOUBLE_EQ(table[static_cast<size_t>(i - 1)], ExactNormalScore(i, 25));
  }
  // Second lookup returns the same object.
  const auto& again = NormalOrderScoreTable::Get(25);
  EXPECT_EQ(&table, &again);
}

TEST(ScoreDeathTest, IndexOutOfRange) {
  EXPECT_DEATH(ExactNormalScore(0, 5), "out of range");
  EXPECT_DEATH(ExactNormalScore(6, 5), "out of range");
}

}  // namespace
}  // namespace cedar
