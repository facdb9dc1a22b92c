#include "src/stats/distribution.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

namespace cedar {
namespace {

// Factory covering every parametric family for the property sweeps.
std::unique_ptr<Distribution> MakeFamily(DistributionFamily family) {
  switch (family) {
    case DistributionFamily::kLogNormal:
      return std::make_unique<LogNormalDistribution>(2.77, 0.84);
    case DistributionFamily::kNormal:
      return std::make_unique<NormalDistribution>(40.0, 10.0);
    case DistributionFamily::kExponential:
      return std::make_unique<ExponentialDistribution>(0.25);
    case DistributionFamily::kPareto:
      return std::make_unique<ParetoDistribution>(1.0, 5.0);
    case DistributionFamily::kWeibull:
      return std::make_unique<WeibullDistribution>(1.5, 10.0);
    case DistributionFamily::kUniform:
      return std::make_unique<UniformDistribution>(2.0, 8.0);
    case DistributionFamily::kEmpirical:
      return std::make_unique<EmpiricalDistribution>(
          std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
    case DistributionFamily::kMixture:
      break;  // mixture_test.cc covers mixtures
  }
  return nullptr;
}

class DistributionPropertyTest : public ::testing::TestWithParam<DistributionFamily> {};

TEST_P(DistributionPropertyTest, QuantileCdfRoundTrip) {
  auto dist = MakeFamily(GetParam());
  for (double p = 0.02; p < 1.0; p += 0.02) {
    double x = dist->Quantile(p);
    EXPECT_NEAR(dist->Cdf(x), p, GetParam() == DistributionFamily::kEmpirical ? 0.15 : 1e-9)
        << dist->ToString() << " p=" << p;
  }
}

TEST_P(DistributionPropertyTest, CdfIsMonotoneWithinSupport) {
  auto dist = MakeFamily(GetParam());
  double prev = -1.0;
  for (double p = 0.01; p < 1.0; p += 0.01) {
    double x = dist->Quantile(p);
    double c = dist->Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
}

TEST_P(DistributionPropertyTest, SampleMomentsMatchAnalytic) {
  auto dist = MakeFamily(GetParam());
  if (!std::isfinite(dist->Mean()) || !std::isfinite(dist->StdDev())) {
    GTEST_SKIP() << "infinite moments";
  }
  if (GetParam() == DistributionFamily::kNormal) {
    GTEST_SKIP() << "normal samples are clamped at zero; see dedicated test";
  }
  if (GetParam() == DistributionFamily::kEmpirical) {
    // Smoothed inverse-transform sampling interpolates between order
    // statistics, which shrinks the variance for tiny sample sets (n=8
    // here); the estimator itself is exercised by EmpiricalTest.
    GTEST_SKIP() << "smoothed resampling shrinks variance for small n";
  }
  Rng rng(12345);
  const int kSamples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    double x = dist->Sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / kSamples;
  double sd = std::sqrt(std::max(0.0, sum_sq / kSamples - mean * mean));
  EXPECT_NEAR(mean, dist->Mean(), 0.03 * dist->Mean() + 0.02) << dist->ToString();
  EXPECT_NEAR(sd, dist->StdDev(), 0.08 * dist->StdDev() + 0.05) << dist->ToString();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DistributionPropertyTest,
                         ::testing::Values(DistributionFamily::kLogNormal,
                                           DistributionFamily::kNormal,
                                           DistributionFamily::kExponential,
                                           DistributionFamily::kPareto,
                                           DistributionFamily::kWeibull,
                                           DistributionFamily::kUniform,
                                           DistributionFamily::kEmpirical),
                         [](const auto& info) { return DistributionFamilyName(info.param); });

TEST(LogNormalTest, AnalyticMoments) {
  LogNormalDistribution d(0.0, 1.0);
  EXPECT_NEAR(d.Mean(), std::exp(0.5), 1e-12);
  EXPECT_NEAR(d.Quantile(0.5), 1.0, 1e-12);
  EXPECT_NEAR(d.StdDev(), std::exp(0.5) * std::sqrt(std::exp(1.0) - 1.0), 1e-12);
}

TEST(LogNormalTest, CdfZeroBelowSupport) {
  LogNormalDistribution d(2.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(-5.0), 0.0);
}

TEST(LogNormalTest, BingFitPercentiles) {
  // The paper's Bing fit: lognormal(5.9, 1.25) in microseconds; median
  // should be ~exp(5.9)=365us.
  LogNormalDistribution d(5.9, 1.25);
  EXPECT_NEAR(d.Quantile(0.5), 365.0, 1.0);
  EXPECT_GT(d.Quantile(0.99), 5000.0);  // long tail
}

TEST(NormalTest, SampleClampedAtZero) {
  NormalDistribution d(40.0, 80.0);  // Figure 17 bottom stage
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(d.Sample(rng), 0.0);
  }
}

TEST(ParetoTest, InfiniteMomentsSignalled) {
  ParetoDistribution heavy(1.0, 0.9);
  EXPECT_TRUE(std::isinf(heavy.Mean()));
  ParetoDistribution mid(1.0, 1.5);
  EXPECT_TRUE(std::isfinite(mid.Mean()));
  EXPECT_TRUE(std::isinf(mid.StdDev()));
}

TEST(EmpiricalTest, MatchesSourceSamples) {
  EmpiricalDistribution d({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(5.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
}

TEST(SpecTest, MakeDistributionDispatch) {
  DistributionSpec spec;
  spec.family = DistributionFamily::kLogNormal;
  spec.p1 = 1.5;
  spec.p2 = 0.5;
  auto d = MakeDistribution(spec);
  EXPECT_EQ(d->family(), DistributionFamily::kLogNormal);
  EXPECT_NEAR(d->Quantile(0.5), std::exp(1.5), 1e-9);

  spec.family = DistributionFamily::kExponential;
  spec.p1 = 2.0;
  auto e = MakeDistribution(spec);
  EXPECT_NEAR(e->Mean(), 0.5, 1e-12);
}

TEST(SpecTest, FamilyNameRoundTrip) {
  for (DistributionFamily family :
       {DistributionFamily::kLogNormal, DistributionFamily::kNormal,
        DistributionFamily::kExponential, DistributionFamily::kPareto,
        DistributionFamily::kWeibull, DistributionFamily::kUniform,
        DistributionFamily::kEmpirical, DistributionFamily::kMixture}) {
    EXPECT_EQ(DistributionFamilyFromName(DistributionFamilyName(family)), family);
  }
}

TEST(SpecDeathTest, EmpiricalSpecRejected) {
  DistributionSpec spec;
  spec.family = DistributionFamily::kEmpirical;
  EXPECT_DEATH(MakeDistribution(spec), "empirical");
  spec.family = DistributionFamily::kMixture;
  EXPECT_DEATH(MakeDistribution(spec), "mixture");
}

}  // namespace
}  // namespace cedar
