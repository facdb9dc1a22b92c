// Numerical-robustness property tests: the quality/optimizer machinery must
// stay finite and sane at extreme parameter corners (tiny and huge
// deadlines, near-degenerate sigmas, single-child fanouts).

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/online_learner.h"
#include "src/core/wait_optimizer.h"
#include "src/stats/normal_math.h"

namespace cedar {
namespace {

struct Corner {
  double mu1;
  double sigma1;
  double mu2;
  double sigma2;
  int k1;
  double deadline;
};

class CornerCaseTest : public ::testing::TestWithParam<Corner> {};

TEST_P(CornerCaseTest, OptimizerStaysFiniteAndBounded) {
  const Corner& corner = GetParam();
  LogNormalDistribution x1(corner.mu1, corner.sigma1);
  LogNormalDistribution x2(corner.mu2, corner.sigma2);
  auto upper = TabulateCdf(x2, corner.deadline, 201);
  const double wait = OptimizeWait(x1, corner.k1, upper, corner.deadline, corner.deadline / 200.0);
  EXPECT_TRUE(std::isfinite(wait));
  EXPECT_GE(wait, 0.0);
  EXPECT_LE(wait, corner.deadline);
}

TEST_P(CornerCaseTest, QualityCurveBounded) {
  const Corner& corner = GetParam();
  TreeSpec tree =
      TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(corner.mu1, corner.sigma1),
                         corner.k1,
                         std::make_shared<LogNormalDistribution>(corner.mu2, corner.sigma2), 8);
  auto curve = BuildQualityCurveStack(tree, corner.deadline)[0];
  for (double f : {0.1, 0.5, 1.0}) {
    double q = curve(f * corner.deadline);
    EXPECT_TRUE(std::isfinite(q));
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, CornerCaseTest,
    ::testing::Values(Corner{0.0, 0.01, 0.0, 0.01, 2, 10.0},      // near-deterministic stages
                      Corner{0.0, 4.0, 0.0, 4.0, 50, 100.0},      // enormous variance
                      Corner{-8.0, 0.5, 8.0, 0.5, 10, 5000.0},    // scales 7 decades apart
                      Corner{10.0, 1.0, -5.0, 0.3, 100, 1e6},     // huge deadline
                      Corner{2.0, 0.8, 2.0, 0.8, 1, 50.0},        // fanout 1
                      Corner{5.0, 1.5, 1.0, 0.2, 2000, 1000.0},   // huge fanout
                      Corner{2.0, 0.8, 2.0, 0.8, 10, 1e-3}));     // hopeless deadline

TEST(NumericsTest, LearnerWithMicrosecondScaleArrivals) {
  // Bing-scale values (1e2..1e4 microseconds) must not lose precision.
  OnlineLearnerOptions options;
  options.min_samples = 2;
  OnlineLearner learner(50, options);
  LogNormalDistribution bing(5.9, 1.25);
  Rng rng(3);
  std::vector<double> samples(50);
  for (auto& s : samples) {
    s = bing.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  for (int i = 0; i < 20; ++i) {
    learner.Observe(samples[static_cast<size_t>(i)]);
  }
  auto fit = learner.CurrentFit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->p1, 5.9, 1.0);
  EXPECT_GT(fit->p2, 0.3);
}

TEST(NumericsTest, LearnerWithSubUnitScaleArrivals) {
  // Second-scale real-time values (3e-2 s medians) as in the rt runtime.
  OnlineLearnerOptions options;
  options.min_samples = 2;
  OnlineLearner learner(30, options);
  LogNormalDistribution tiny(-3.5, 0.6);
  Rng rng(5);
  std::vector<double> samples(30);
  for (auto& s : samples) {
    s = tiny.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  for (int i = 0; i < 15; ++i) {
    learner.Observe(samples[static_cast<size_t>(i)]);
  }
  auto fit = learner.CurrentFit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->p1, -3.5, 0.6);
}

TEST(NumericsTest, NormalQuantileExtremeTails) {
  for (double p : {1e-15, 1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12}) {
    double z = NormalQuantile(p);
    EXPECT_TRUE(std::isfinite(z)) << p;
    EXPECT_NEAR(NormalCdf(z), p, std::max(1e-12, 0.05 * p)) << p;
  }
}

}  // namespace
}  // namespace cedar
