#include "src/core/quality.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/rng.h"
#include "tests/reference_scan.h"
#include "tests/test_distributions.h"

namespace cedar {
namespace {

TreeSpec GoogleTwoLevel(int k1 = 50, int k2 = 50) {
  return TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.94, 0.55), k1,
                            std::make_shared<LogNormalDistribution>(2.94, 0.55), k2);
}

// INT_MAX has 31 one-bits: the most squarings and products any fanout takes.
constexpr int kFanouts[] = {1, 2, 3, 7, 50, 1000, 1 << 20, INT_MAX};

// FanoutPower's documented floor: 2^(-56/(k-1)) for k >= 2, none for k == 1.
double PowerFloor(int k) { return k > 1 ? std::exp2(-56.0 / (k - 1)) : 0.0; }

// gamma_{k-1} = (k-1)u / (1 - (k-1)u) with u = 2^-53: the relative error
// bound of a product of k rounded copies of one factor.
long double Gamma(int k) {
  const long double ku = static_cast<long double>(k - 1) * std::ldexp(1.0L, -53);
  return ku / (1.0L - ku);
}

TEST(FanoutPowerTest, WithinGammaOfTheExactPower) {
  Rng rng(13);
  for (int k : kFanouts) {
    const FanoutPower power(k);
    const double floor = PowerFloor(k);
    std::vector<double> phis = {floor, std::nextafter(1.0, 0.0), 1.0};
    for (int i = 0; i < 2000; ++i) {
      phis.push_back(floor + (1.0 - floor) * rng.NextDouble());
    }
    for (double phi : phis) {
      const double got = power(phi);
      const long double exact = powl(static_cast<long double>(phi), k);
      // powl's own error, a few long-double ulps, is far below 2^-60.
      const long double bound = (Gamma(k) + std::ldexp(1.0L, -60)) * exact;
      EXPECT_LE(fabsl(static_cast<long double>(got) - exact), bound)
          << "k " << k << " phi " << phi;
      EXPECT_TRUE(got == 0.0 || got >= DBL_MIN) << "k " << k << " phi " << phi << ": " << got;
    }
  }
}

TEST(FanoutPowerTest, FanoutOneReturnsPhi) {
  Rng rng(14);
  const FanoutPower power(1);
  for (int i = 0; i < 1000; ++i) {
    const double phi = rng.NextDouble();
    EXPECT_EQ(std::bit_cast<uint64_t>(power(phi)), std::bit_cast<uint64_t>(phi)) << phi;
  }
}

TEST(FanoutPowerTest, EndpointsAreExact) {
  for (int k : kFanouts) {
    const FanoutPower power(k);
    EXPECT_EQ(power(1.0), 1.0) << "k " << k;
    EXPECT_EQ(power(0.0), 0.0) << "k " << k;
  }
}

TEST(FanoutPowerTest, FloorCannotChangeTheLoss) {
  // Below the floor the helper returns 0. The loss reads Phi - Phi^k, and
  // there the rounded difference with the real power is Phi itself.
  Rng rng(15);
  for (int k : kFanouts) {
    if (k == 1) {
      continue;
    }
    const FanoutPower power(k);
    const double floor = PowerFloor(k);
    std::vector<double> phis = {std::nextafter(floor, 0.0), floor * (1.0 - 1e-9)};
    for (int i = 0; i < 2000; ++i) {
      phis.push_back(floor * rng.NextDouble());
    }
    for (double phi : phis) {
      EXPECT_EQ(power(phi), 0.0) << "k " << k << " phi " << phi;
      EXPECT_EQ(std::bit_cast<uint64_t>(phi - std::pow(phi, k)), std::bit_cast<uint64_t>(phi))
          << "k " << k << " phi " << phi;
    }
  }
}

TEST(TabulateCdfTest, MatchesDistribution) {
  LogNormalDistribution dist(2.0, 0.5);
  auto curve = TabulateCdf(dist, 100.0, 401);
  for (double x : {0.0, 1.0, 7.5, 25.0, 99.0}) {
    EXPECT_NEAR(curve(x), dist.Cdf(x), 2e-3) << "x=" << x;
  }
  EXPECT_DOUBLE_EQ(curve(0.0), 0.0);
}

TEST(QualityCurveTest, BaseCaseIsTopStageCdf) {
  TreeSpec tree = GoogleTwoLevel();
  auto curve = BuildQualityCurveStack(tree, 200.0)[1];
  for (double d : {10.0, 50.0, 150.0}) {
    EXPECT_NEAR(curve(d), tree.stage(1).duration->Cdf(d), 2e-3);
  }
}

TEST(QualityCurveTest, BoundedAndMonotone) {
  TreeSpec tree = GoogleTwoLevel();
  auto curve = BuildQualityCurveStack(tree, 300.0)[0];
  double prev = 0.0;
  for (double d = 0.0; d <= 300.0; d += 3.0) {
    double q = curve(d);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    EXPECT_GE(q, prev - 5e-3) << "quality should not decrease with deadline, d=" << d;
    prev = std::max(prev, q);
  }
}

TEST(QualityCurveTest, StackMatchesRecursiveBuild) {
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<LogNormalDistribution>(2.0, 0.8), 20);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(2.5, 0.6), 10);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(2.2, 0.5), 5);
  TreeSpec tree(std::move(stages));
  auto stack = BuildQualityCurveStack(tree, 200.0);
  ASSERT_EQ(stack.size(), 3u);
  for (int first = 0; first < 3; ++first) {
    // The stack's curve for stages [first, n) is the full-tree curve of the
    // subtree made of those stages.
    TreeSpec subtree(std::vector<StageSpec>(tree.stages().begin() + first, tree.stages().end()));
    auto direct = BuildQualityCurveStack(subtree, 200.0)[0];
    for (double d = 5.0; d <= 200.0; d += 13.0) {
      EXPECT_NEAR(stack[static_cast<size_t>(first)](d), direct(d), 1e-9)
          << "first=" << first << " d=" << d;
    }
  }
}

TEST(QualityCurveTest, StackBitIdenticalToReferenceScan) {
  // Seeded random trees over every family and fanout, at the default grid
  // and at an odd step count.
  Rng rng(20161017);
  QualityGridOptions odd;
  odd.steps = 137;
  for (const QualityGridOptions& options : {QualityGridOptions{}, odd}) {
    for (int trial = 0; trial < 2; ++trial) {
      double deadline = 1.0 + 999.0 * rng.NextDouble();
      auto bottoms = OneOfEachFamily(rng, deadline);
      auto uppers = OneOfEachFamily(rng, deadline);
      for (size_t f = 0; f < bottoms.size(); ++f) {
        for (int fanout : {1, 2, 50, 1000}) {
          // Three stages so the middle fold runs on a folded (non-CDF) curve.
          std::vector<StageSpec> stages;
          stages.emplace_back(bottoms[f], fanout);
          stages.emplace_back(uppers[f], 1 + (fanout % 7));
          stages.emplace_back(uppers[(f + 1) % uppers.size()], 3);
          TreeSpec tree(std::move(stages));
          auto got = BuildQualityCurveStack(tree, deadline, options);
          auto want = ReferenceStack(tree, deadline, options);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].ys().size(), want[i].ys().size());
            for (size_t g = 0; g < got[i].ys().size(); ++g) {
              ASSERT_EQ(std::bit_cast<uint64_t>(got[i].ys()[g]),
                        std::bit_cast<uint64_t>(want[i].ys()[g]))
                  << bottoms[f]->ToString() << " fanout " << fanout << " stage " << i
                  << " grid point " << g;
            }
          }
        }
      }
    }
  }
}

TEST(QualityCurveTest, ZeroDeadlineGivesZeroQuality) {
  TreeSpec tree = GoogleTwoLevel();
  auto curve = BuildQualityCurveStack(tree, 100.0)[0];
  EXPECT_DOUBLE_EQ(curve(0.0), 0.0);
}

TEST(QualityCurveTest, GenerousDeadlineApproachesOne) {
  TreeSpec tree = GoogleTwoLevel();
  // Google medians ~19ms; 10s is beyond any relevant percentile.
  EXPECT_GT(MaxExpectedQuality(tree, 10000.0), 0.99);
}

TEST(QualityCurveTest, MoreLevelsNeedMoreDeadline) {
  auto dist = std::make_shared<LogNormalDistribution>(2.94, 0.55);
  TreeSpec two = TreeSpec::TwoLevel(dist, 20, dist, 20);
  std::vector<StageSpec> stages3;
  stages3.emplace_back(dist, 20);
  stages3.emplace_back(dist, 20);
  stages3.emplace_back(dist, 20);
  TreeSpec three{std::move(stages3)};
  double d = 120.0;
  EXPECT_GT(MaxExpectedQuality(two, d), MaxExpectedQuality(three, d));
}

// Cross-check the analytic optimum against brute-force Monte Carlo over
// fixed waits: q2(D) from the curve must match the best empirical quality
// within sampling noise. This validates Equations 1-4 end to end.
TEST(QualityCurveTest, TwoLevelMatchesMonteCarloOptimum) {
  const int k1 = 30;
  const int k2 = 30;
  LogNormalDistribution x1(2.0, 0.9);
  LogNormalDistribution x2(2.0, 0.6);
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(x1), k1,
                                     std::make_shared<LogNormalDistribution>(x2), k2);
  const double deadline = 40.0;
  double analytic = MaxExpectedQuality(tree, deadline);

  Rng rng(2024);
  double best_empirical = 0.0;
  for (double w = 2.0; w < deadline; w += 2.0) {
    double total_quality = 0.0;
    const int kTrials = 400;
    for (int t = 0; t < kTrials; ++t) {
      long long included = 0;
      for (int a = 0; a < k2; ++a) {
        // Aggregator collects arrivals <= its send time; sends early if all
        // k1 arrive sooner.
        int arrived = 0;
        double last = 0.0;
        std::vector<double> durations(static_cast<size_t>(k1));
        for (auto& dur : durations) {
          dur = x1.Sample(rng);
        }
        std::sort(durations.begin(), durations.end());
        for (double dur : durations) {
          if (dur <= w) {
            ++arrived;
            last = dur;
          }
        }
        double send = (arrived == k1) ? last : w;
        double arrive_at_root = send + x2.Sample(rng);
        if (arrive_at_root <= deadline) {
          included += arrived;
        }
      }
      total_quality += static_cast<double>(included) / (k1 * k2);
    }
    best_empirical = std::max(best_empirical, total_quality / kTrials);
  }
  EXPECT_NEAR(analytic, best_empirical, 0.03);
}

// Same Monte-Carlo cross-check for a second family (exponential): the
// quality recursion is distribution-agnostic by construction, but the test
// pins it.
TEST(QualityCurveTest, ExponentialTwoLevelMatchesMonteCarloOptimum) {
  const int k1 = 20;
  const int k2 = 20;
  ExponentialDistribution x1(0.2);
  ExponentialDistribution x2(0.5);
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<ExponentialDistribution>(x1), k1,
                                     std::make_shared<ExponentialDistribution>(x2), k2);
  const double deadline = 15.0;
  double analytic = MaxExpectedQuality(tree, deadline);

  Rng rng(77);
  double best_empirical = 0.0;
  for (double w = 1.0; w < deadline; w += 1.0) {
    double total_quality = 0.0;
    const int kTrials = 500;
    for (int t = 0; t < kTrials; ++t) {
      long long included = 0;
      for (int a = 0; a < k2; ++a) {
        int arrived = 0;
        double last = 0.0;
        std::vector<double> durations(static_cast<size_t>(k1));
        for (auto& dur : durations) {
          dur = x1.Sample(rng);
        }
        std::sort(durations.begin(), durations.end());
        for (double dur : durations) {
          if (dur <= w) {
            ++arrived;
            last = dur;
          }
        }
        double send = (arrived == k1) ? last : w;
        if (send + x2.Sample(rng) <= deadline) {
          included += arrived;
        }
      }
      total_quality += static_cast<double>(included) / (k1 * k2);
    }
    best_empirical = std::max(best_empirical, total_quality / kTrials);
  }
  EXPECT_NEAR(analytic, best_empirical, 0.03);
}

TEST(QualityCurveTest, WeibullStagesSupported) {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<WeibullDistribution>(1.5, 10.0), 15,
                                     std::make_shared<WeibullDistribution>(0.9, 8.0), 15);
  auto curve = BuildQualityCurveStack(tree, 100.0)[0];
  EXPECT_GT(curve(100.0), 0.5);
  EXPECT_LE(curve(100.0), 1.0);
  // Monotone in d.
  EXPECT_LE(curve(30.0), curve(60.0) + 5e-3);
}

TEST(QualityCurveTest, GridResolutionConverges) {
  TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.9), 25,
                                     std::make_shared<LogNormalDistribution>(2.2, 0.7), 25);
  QualityGridOptions coarse;
  coarse.steps = 50;
  QualityGridOptions fine;
  fine.steps = 800;
  for (double d : {20.0, 40.0, 60.0}) {
    double q_coarse = BuildQualityCurveStack(tree, 60.0, coarse)[0](d);
    double q_fine = BuildQualityCurveStack(tree, 60.0, fine)[0](d);
    EXPECT_NEAR(q_coarse, q_fine, 0.03) << "d=" << d;
  }
}

}  // namespace
}  // namespace cedar
