#include "src/stats/mixture.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cedar {
namespace {

MixtureDistribution Bimodal() {
  return MixtureDistribution::WithStragglerMode(
      std::make_shared<LogNormalDistribution>(2.0, 0.4),
      std::make_shared<LogNormalDistribution>(4.0, 0.6), 0.1);
}

TEST(MixtureTest, WeightsNormalized) {
  std::vector<MixtureDistribution::Component> components;
  components.push_back({2.0, std::make_shared<ExponentialDistribution>(1.0)});
  components.push_back({6.0, std::make_shared<ExponentialDistribution>(2.0)});
  MixtureDistribution mixture(std::move(components));
  ExponentialDistribution fast(1.0);
  ExponentialDistribution slow(2.0);
  for (double x : {0.1, 0.5, 1.0, 3.0}) {
    EXPECT_NEAR(mixture.Cdf(x), 0.25 * fast.Cdf(x) + 0.75 * slow.Cdf(x), 1e-15) << x;
  }
}

TEST(MixtureTest, ReportsItsOwnFamily) {
  EXPECT_EQ(Bimodal().family(), DistributionFamily::kMixture);
  EXPECT_EQ(DistributionFamilyName(Bimodal().family()), "mixture");
}

TEST(MixtureTest, CdfIsWeightedSum) {
  MixtureDistribution mixture = Bimodal();
  LogNormalDistribution body(2.0, 0.4);
  LogNormalDistribution straggler(4.0, 0.6);
  for (double x : {1.0, 7.4, 20.0, 54.0, 200.0}) {
    EXPECT_NEAR(mixture.Cdf(x), 0.9 * body.Cdf(x) + 0.1 * straggler.Cdf(x), 1e-12) << x;
  }
}

TEST(MixtureTest, MeanIsWeightedSum) {
  MixtureDistribution mixture = Bimodal();
  LogNormalDistribution body(2.0, 0.4);
  LogNormalDistribution straggler(4.0, 0.6);
  EXPECT_NEAR(mixture.Mean(), 0.9 * body.Mean() + 0.1 * straggler.Mean(), 1e-9);
}

TEST(MixtureTest, QuantileRoundTrips) {
  MixtureDistribution mixture = Bimodal();
  for (double p = 0.02; p < 1.0; p += 0.02) {
    double x = mixture.Quantile(p);
    EXPECT_NEAR(mixture.Cdf(x), p, 1e-7) << "p=" << p;
  }
}

TEST(MixtureTest, SamplesHitBothModes) {
  MixtureDistribution mixture = Bimodal();
  Rng rng(5);
  int straggler_like = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (mixture.Sample(rng) > 25.0) {  // body p99.9 ~ 25
      ++straggler_like;
    }
  }
  double fraction = static_cast<double>(straggler_like) / kSamples;
  EXPECT_NEAR(fraction, 0.1, 0.015);
}

TEST(MixtureTest, StdDevMatchesSampling) {
  MixtureDistribution mixture = Bimodal();
  Rng rng(9);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int kSamples = 300000;
  for (int i = 0; i < kSamples; ++i) {
    double x = mixture.Sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / kSamples;
  double sd = std::sqrt(sum_sq / kSamples - mean * mean);
  EXPECT_NEAR(mean, mixture.Mean(), 0.03 * mixture.Mean());
  EXPECT_NEAR(sd, mixture.StdDev(), 0.05 * mixture.StdDev());
}

TEST(MixtureDeathTest, RejectsBadInputs) {
  std::vector<MixtureDistribution::Component> empty;
  EXPECT_DEATH(MixtureDistribution{std::move(empty)}, "at least one");
  EXPECT_DEATH(MixtureDistribution::WithStragglerMode(
                   std::make_shared<ExponentialDistribution>(1.0),
                   std::make_shared<ExponentialDistribution>(1.0), 1.5),
               "fraction");
}

}  // namespace
}  // namespace cedar
