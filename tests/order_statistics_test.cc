#include "src/stats/order_statistics.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

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
  std::vector<double> direct;
  for (int i = 1; i <= 25; ++i) {
    direct.push_back(ExactNormalScore(i, 25));
  }
  const auto& table = NormalOrderScoreTable::Get(25);
  EXPECT_EQ(table, direct);
  // Second lookup returns the same object.
  const auto& again = NormalOrderScoreTable::Get(25);
  EXPECT_EQ(&table, &again);
}

// Eight threads race on the first Get of one shared k and of a k of their
// own; every thread asking for one k must get the same table. Runs under
// TSan (tier1_tsan). The k values are used by no other test in this binary,
// so every Get here is a first use.
TEST(ScoreTableTest, ConcurrentFirstUseYieldsOneTablePerK) {
  constexpr int kThreads = 8;
  constexpr int kShared = 301;
  std::atomic<int> ready{0};
  std::vector<const std::vector<double>*> shared(kThreads, nullptr);
  std::vector<const std::vector<double>*> own(kThreads, nullptr);
  std::vector<const std::vector<double>*> own_again(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Odd threads start on their own k, so the shared k's first calls
      // overlap with other k's inserts.
      const int own_k = 302 + t / 2;  // two threads per own k
      if (t % 2 == 1) {
        own[static_cast<size_t>(t)] = &NormalOrderScoreTable::Get(own_k);
      }
      shared[static_cast<size_t>(t)] = &NormalOrderScoreTable::Get(kShared);
      own_again[static_cast<size_t>(t)] = &NormalOrderScoreTable::Get(own_k);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<size_t>(t);
    EXPECT_EQ(shared[i], &NormalOrderScoreTable::Get(kShared)) << "thread " << t;
    EXPECT_EQ(own_again[i], &NormalOrderScoreTable::Get(302 + t / 2)) << "thread " << t;
    if (t % 2 == 1) {
      EXPECT_EQ(own[i], own_again[i]) << "thread " << t;
    }
  }
  EXPECT_EQ(NormalOrderScoreTable::Get(kShared).size(), static_cast<size_t>(kShared));
  EXPECT_EQ(NormalOrderScoreTable::Get(kShared)[0], ExactNormalScore(1, kShared));
}

TEST(ScoreDeathTest, IndexOutOfRange) {
  EXPECT_DEATH(ExactNormalScore(0, 5), "out of range");
  EXPECT_DEATH(ExactNormalScore(6, 5), "out of range");
}

}  // namespace
}  // namespace cedar
