#include "src/common/math_util.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cedar {
namespace {

TEST(LerpTest, Endpoints) {
  EXPECT_DOUBLE_EQ(Lerp(2.0, 10.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(Lerp(2.0, 10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Lerp(2.0, 10.0, 0.5), 6.0);
}

TEST(LerpTest, ExtrapolatesBeyondUnitInterval) {
  EXPECT_DOUBLE_EQ(Lerp(0.0, 1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(Lerp(0.0, 1.0, -1.0), -1.0);
}

TEST(ClampTest, Basic) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(LogBinomialTest, SmallValuesExact) {
  EXPECT_NEAR(std::exp(LogBinomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomial(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomial(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomial(50, 25)), 1.2641060643775244e14, 1e6);
}

TEST(LogBinomialTest, Symmetry) {
  for (int n = 1; n <= 40; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(LogBinomial(n, k), LogBinomial(n, n - k), 1e-9);
    }
  }
}

TEST(LogBinomialTest, MatchesLgammaBitForBit) {
  for (int n = 0; n <= 60; ++n) {
    for (int k = 0; k <= n; ++k) {
      double expected = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
      EXPECT_EQ(LogBinomial(n, k), expected) << n << " choose " << k;
    }
  }
}

TEST(LogBinomialTest, ConcurrentCallsAgreeWithSerial) {
  // Order-statistic tables are filled on pool workers, so LogBinomial runs
  // on several threads at once; it must not touch shared state (TSan run).
  constexpr int kMaxN = 200;
  std::vector<double> serial;
  for (int k = 0; k <= kMaxN; ++k) {
    serial.push_back(LogBinomial(kMaxN, k));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      for (int round = 0; round < 50; ++round) {
        results[static_cast<size_t>(t)].clear();
        for (int k = 0; k <= kMaxN; ++k) {
          results[static_cast<size_t>(t)].push_back(LogBinomial(kMaxN, k));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& values : results) {
    EXPECT_EQ(values, serial);
  }
}

TEST(FindRootTest, FindsSqrtTwo) {
  double root = FindRootBisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-9);
}

TEST(FindRootTest, RootAtEndpoint) {
  EXPECT_DOUBLE_EQ(FindRootBisect([](double x) { return x; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(FindRootBisect([](double x) { return x - 1.0; }, 0.0, 1.0), 1.0);
}

TEST(PiecewiseLinearTest, UniformInterpolation) {
  auto f = PiecewiseLinear::FromUniform(0.0, 1.0, {0.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.0), 10.0);
  EXPECT_DOUBLE_EQ(f(1.75), 17.5);
  EXPECT_DOUBLE_EQ(f(2.0), 20.0);
}

TEST(PiecewiseLinearTest, FlatExtrapolation) {
  auto f = PiecewiseLinear::FromUniform(1.0, 1.0, {3.0, 7.0});
  EXPECT_DOUBLE_EQ(f(0.0), 3.0);
  EXPECT_DOUBLE_EQ(f(-100.0), 3.0);
  EXPECT_DOUBLE_EQ(f(2.5), 7.0);
  EXPECT_DOUBLE_EQ(f(100.0), 7.0);
  EXPECT_DOUBLE_EQ(f.min_x(), 1.0);
  EXPECT_DOUBLE_EQ(f.max_x(), 2.0);
}

TEST(QuantileOfSortedTest, Endpoints) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(QuantileOfSorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(v, 0.5), 2.5);
}

TEST(QuantileOfSortedTest, SingleElement) {
  std::vector<double> v = {7.0};
  EXPECT_DOUBLE_EQ(QuantileOfSorted(v, 0.3), 7.0);
}

TEST(QuantileOfSortedTest, InterpolatesType7) {
  // numpy.percentile([10, 20, 30], 25) == 15.
  std::vector<double> v = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(QuantileOfSorted(v, 0.25), 15.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(v, 0.75), 25.0);
}

}  // namespace
}  // namespace cedar
