#include "src/stats/fitting.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/stats/rng.h"

namespace cedar {
namespace {

std::vector<PercentilePoint> PercentilesOf(const Distribution& dist) {
  std::vector<PercentilePoint> points;
  for (double p : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    points.push_back({p, dist.Quantile(p)});
  }
  return points;
}

TEST(FitterTest, RecoversLogNormalExactly) {
  LogNormalDistribution truth(2.77, 0.84);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kLogNormal);
  EXPECT_NEAR(best.spec.p1, 2.77, 1e-6);
  EXPECT_NEAR(best.spec.p2, 0.84, 1e-6);
  EXPECT_LT(best.relative_rms_error, 1e-6);
}

TEST(FitterTest, RecoversNormalExactly) {
  NormalDistribution truth(40.0, 10.0);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kNormal);
  EXPECT_NEAR(best.spec.p1, 40.0, 1e-6);
  EXPECT_NEAR(best.spec.p2, 10.0, 1e-6);
}

TEST(FitterTest, RecoversExponentialExactly) {
  ExponentialDistribution truth(0.25);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kExponential);
  EXPECT_NEAR(best.spec.p1, 0.25, 1e-6);
}

TEST(FitterTest, RecoversParetoExactly) {
  ParetoDistribution truth(2.0, 3.0);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kPareto);
  EXPECT_NEAR(best.spec.p1, 2.0, 1e-6);
  EXPECT_NEAR(best.spec.p2, 3.0, 1e-6);
}

TEST(FitterTest, RecoversWeibullExactly) {
  WeibullDistribution truth(1.5, 10.0);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kWeibull);
  EXPECT_NEAR(best.spec.p1, 1.5, 1e-6);
  EXPECT_NEAR(best.spec.p2, 10.0, 1e-6);
}

TEST(FitterTest, RecoversUniformExactly) {
  UniformDistribution truth(3.0, 9.0);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kUniform);
  EXPECT_NEAR(best.spec.p1, 3.0, 1e-6);
  EXPECT_NEAR(best.spec.p2, 9.0, 1e-6);
}

TEST(FitterTest, LogNormalWinsOnSampledLogNormalData) {
  // The §4.2.1 scenario: fit percentiles of observed (sampled) durations;
  // log-normal should rank first among candidates.
  LogNormalDistribution truth(2.94, 0.55);  // Google
  Rng rng(42);
  std::vector<double> samples(20000);
  for (auto& s : samples) {
    s = truth.Sample(rng);
  }
  auto fits = FitSamples(samples);
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().spec.family, DistributionFamily::kLogNormal);
  EXPECT_NEAR(fits.front().spec.p1, 2.94, 0.05);
  EXPECT_NEAR(fits.front().spec.p2, 0.55, 0.05);
  // Paper: < 5% error even at high percentiles for the Google fit.
  EXPECT_LT(fits.front().max_relative_error, 0.05);
}

TEST(FitterTest, RanksByError) {
  LogNormalDistribution truth(1.0, 1.2);
  auto fits = FitPercentiles(PercentilesOf(truth));
  for (size_t i = 1; i < fits.size(); ++i) {
    EXPECT_LE(fits[i - 1].relative_rms_error, fits[i].relative_rms_error);
  }
}

TEST(FitterTest, NegativeDataExcludesPositiveFamilies) {
  // Percentiles with negative values: lognormal/pareto/weibull must drop out.
  NormalDistribution truth(0.0, 5.0);
  auto fits = FitPercentiles(PercentilesOf(truth));
  for (const auto& fit : fits) {
    EXPECT_NE(fit.spec.family, DistributionFamily::kLogNormal);
    EXPECT_NE(fit.spec.family, DistributionFamily::kPareto);
    EXPECT_NE(fit.spec.family, DistributionFamily::kWeibull);
  }
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().spec.family, DistributionFamily::kNormal);
}

TEST(FitterTest, BingPublishedPercentilesFitLogNormal) {
  // Figure 4's published percentiles (330us median, 1.1ms p90, 14ms p99).
  // Three points under-determine the family choice, so read the log-normal
  // fit (the paper's chosen type) off the ranking and check the parameters
  // land in the neighbourhood of its quoted (5.9, 1.25) fit.
  std::vector<PercentilePoint> points = {{0.50, 330.0}, {0.90, 1100.0}, {0.99, 14000.0}};
  auto fits = FitPercentiles(points);
  auto lognormal = std::find_if(fits.begin(), fits.end(), [](const DistributionFit& fit) {
    return fit.spec.family == DistributionFamily::kLogNormal;
  });
  ASSERT_NE(lognormal, fits.end());
  EXPECT_NEAR(lognormal->spec.p1, 5.9, 0.4);
  EXPECT_GT(lognormal->spec.p2, 1.0);
  EXPECT_LT(lognormal->spec.p2, 2.0);
}

TEST(EvaluateFitTest, ZeroErrorOnOwnQuantiles) {
  // A family fitted to its own quantiles reproduces them to rounding.
  LogNormalDistribution truth(2.0, 0.7);
  DistributionFit best = FitPercentiles(PercentilesOf(truth)).front();
  EXPECT_EQ(best.spec.family, DistributionFamily::kLogNormal);
  EXPECT_LT(best.relative_rms_error, 1e-12);
  EXPECT_LT(best.max_relative_error, 1e-12);
}

TEST(FitterDeathTest, RejectsBadPercentiles) {
  EXPECT_DEATH(FitPercentiles({{0.0, 1.0}, {0.5, 2.0}}), "percentile");
  EXPECT_DEATH(FitPercentiles({{0.5, 1.0}}), "at least two");
}

}  // namespace
}  // namespace cedar
