#include "src/stats/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/rng.h"

namespace cedar {
namespace {

// Draws |k| samples from LogNormal(mu, sigma), sorts, returns the first r.
std::vector<double> FirstArrivals(double mu, double sigma, int k, int r, Rng& rng) {
  LogNormalDistribution dist(mu, sigma);
  std::vector<double> samples(static_cast<size_t>(k));
  for (auto& s : samples) {
    s = dist.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  samples.resize(static_cast<size_t>(r));
  return samples;
}

// Property sweep: (mu, sigma, k, r) — the order-statistics estimator should
// recover mu with small bias from only the earliest r of k samples.
class LogNormalRecoveryTest
    : public ::testing::TestWithParam<std::tuple<double, double, int, int>> {};

TEST_P(LogNormalRecoveryTest, MuRecoveredWithLowBias) {
  auto [mu, sigma, k, r] = GetParam();
  Rng rng(1234);
  const int kTrials = 300;
  double mu_sum = 0.0;
  double sigma_sum = 0.0;
  int ok = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto arrivals = FirstArrivals(mu, sigma, k, r, rng);
    auto est = EstimateLogNormalOrderStats(arrivals, k);
    if (est.has_value()) {
      mu_sum += est->location;
      sigma_sum += est->scale;
      ++ok;
    }
  }
  ASSERT_GT(ok, kTrials * 9 / 10);
  double mu_bias = std::fabs(mu_sum / ok - mu) / std::fabs(mu);
  double sigma_bias = std::fabs(sigma_sum / ok - sigma) / sigma;
  // The paper reports < 5% error in mu once ~10 samples arrived and ~20%
  // error in sigma (Figure 9).
  EXPECT_LT(mu_bias, 0.06) << "mu=" << mu << " sigma=" << sigma << " k=" << k << " r=" << r;
  EXPECT_LT(sigma_bias, 0.25) << "mu=" << mu << " sigma=" << sigma << " k=" << k << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LogNormalRecoveryTest,
    ::testing::Values(std::make_tuple(2.77, 0.84, 50, 10),   // the paper's Facebook fit
                      std::make_tuple(2.77, 0.84, 50, 25),
                      std::make_tuple(2.77, 0.84, 50, 50),
                      std::make_tuple(2.94, 0.55, 50, 15),   // Google
                      std::make_tuple(5.90, 1.25, 50, 20),   // Bing
                      std::make_tuple(0.50, 1.50, 100, 20),
                      std::make_tuple(-1.0, 0.30, 20, 10)));

TEST(OrderStatsVsEmpiricalTest, OrderStatsRemovesEarlyArrivalBias) {
  // With only the earliest 10 of 50 samples, the plain empirical mean of
  // logs is biased far below mu; the order-statistics estimator is not.
  const double mu = 2.77;
  const double sigma = 0.84;
  Rng rng(77);
  const int kTrials = 400;
  double os_err = 0.0;
  double emp_err = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    auto arrivals = FirstArrivals(mu, sigma, 50, 10, rng);
    auto os = EstimateLogNormalOrderStats(arrivals, 50);
    auto emp = EstimateLogNormalEmpirical(arrivals);
    ASSERT_TRUE(os.has_value());
    ASSERT_TRUE(emp.has_value());
    os_err += std::fabs(os->location - mu);
    emp_err += std::fabs(emp->location - mu);
  }
  os_err /= kTrials;
  emp_err /= kTrials;
  EXPECT_LT(os_err, 0.3 * emp_err) << "order statistics should be far less biased";
  EXPECT_LT(os_err, 0.3) << "absolute order-statistics error should be small";
  // Empirical estimate is biased LOW (sees only fast finishers): the paper's
  // Figure 9 shows ~30-80% error for it.
  EXPECT_GT(emp_err / mu, 0.25);
}

TEST(NormalOrderStatsTest, RecoversParameters) {
  NormalDistribution dist(40.0, 10.0);
  Rng rng(11);
  const int kTrials = 300;
  double mean_sum = 0.0;
  double sd_sum = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> samples(50);
    for (auto& s : samples) {
      s = dist.Sample(rng);
    }
    std::sort(samples.begin(), samples.end());
    samples.resize(15);
    auto est = EstimateNormalOrderStats(samples, 50);
    ASSERT_TRUE(est.has_value());
    mean_sum += est->location;
    sd_sum += est->scale;
  }
  EXPECT_NEAR(mean_sum / kTrials, 40.0, 1.5);
  EXPECT_NEAR(sd_sum / kTrials, 10.0, 1.5);
}

TEST(ExponentialOrderStatsTest, SpacingEstimatorIsUnbiased) {
  ExponentialDistribution dist(0.5);
  Rng rng(13);
  const int kTrials = 500;
  double mean_sum = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> samples(40);
    for (auto& s : samples) {
      s = dist.Sample(rng);
    }
    std::sort(samples.begin(), samples.end());
    samples.resize(10);
    auto est = EstimateExponentialOrderStats(samples, 40);
    ASSERT_TRUE(est.has_value());
    mean_sum += est->location;
  }
  EXPECT_NEAR(mean_sum / kTrials, 2.0, 0.15);  // 1/lambda = 2
}

TEST(EstimatorEdgeCasesTest, TooFewSamples) {
  EXPECT_FALSE(EstimateLogNormalOrderStats({1.0}, 50).has_value());
  EXPECT_FALSE(EstimateNormalOrderStats({}, 50).has_value());
  EXPECT_FALSE(EstimateLogNormalEmpirical({1.0}).has_value());
  EXPECT_FALSE(EstimateExponentialOrderStats({}, 50).has_value());
}

TEST(EstimatorEdgeCasesTest, MoreSamplesThanFanoutRejected) {
  std::vector<double> five = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_FALSE(EstimateLogNormalOrderStats(five, 3).has_value());
}

TEST(EstimatorEdgeCasesTest, NonPositiveTimesRejectedForLogNormal) {
  EXPECT_FALSE(EstimateLogNormalOrderStats({0.0, 1.0}, 10).has_value());
  EXPECT_FALSE(EstimateLogNormalOrderStats({-1.0, 1.0}, 10).has_value());
}

TEST(EstimatorEdgeCasesTest, IdenticalTimesGiveZeroScale) {
  auto est = EstimateLogNormalOrderStats({2.0, 2.0, 2.0}, 10);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->scale, 0.0);
  EXPECT_NEAR(est->location, std::log(2.0), 0.5);
}

TEST(FitSpecTest, NonFiniteFitsAreNoFit) {
  // A NaN or infinite arrival makes the location or scale non-finite; the
  // dispatchers must return nullopt rather than a spec the policies would
  // scan (a NaN scale used to pass the kMinScale floor).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (auto family : {DistributionFamily::kLogNormal, DistributionFamily::kNormal}) {
    EXPECT_FALSE(FitSpecFromOrderStats(family, {1.0, 2.0, inf}, 10).has_value());
    EXPECT_FALSE(FitSpecFromOrderStats(family, {1.0, 2.0, nan}, 10).has_value());
    EXPECT_FALSE(FitSpecEmpirical(family, {1.0, nan}).has_value());
    EXPECT_FALSE(FitSpecEmpirical(family, {1.0, inf}).has_value());
  }
  EXPECT_FALSE(FitSpecEmpirical(DistributionFamily::kExponential, {1.0, nan}).has_value());
  EXPECT_FALSE(FitSpecFromOrderStats(DistributionFamily::kExponential, {1.0, inf}, 10)
                   .has_value());
  // Finite fits are unaffected.
  EXPECT_TRUE(FitSpecFromOrderStats(DistributionFamily::kLogNormal, {1.0, 2.0, 3.0}, 10)
                  .has_value());
  EXPECT_TRUE(FitSpecEmpirical(DistributionFamily::kNormal, {1.0, 2.0}).has_value());
}

TEST(EstimatorDeathTest, UnsortedArrivalsDie) {
  std::vector<double> bad = {3.0, 1.0};
  EXPECT_DEATH(EstimateLogNormalOrderStats(bad, 10), "ascending");
}

TEST(FitSpecTest, DispatchesByFamily) {
  Rng rng(5);
  auto arrivals = FirstArrivals(1.0, 0.5, 30, 15, rng);
  auto log_spec = FitSpecFromOrderStats(DistributionFamily::kLogNormal, arrivals, 30);
  ASSERT_TRUE(log_spec.has_value());
  EXPECT_EQ(log_spec->family, DistributionFamily::kLogNormal);

  auto norm_spec = FitSpecFromOrderStats(DistributionFamily::kNormal, arrivals, 30);
  ASSERT_TRUE(norm_spec.has_value());
  EXPECT_EQ(norm_spec->family, DistributionFamily::kNormal);

  auto exp_spec = FitSpecFromOrderStats(DistributionFamily::kExponential, arrivals, 30);
  ASSERT_TRUE(exp_spec.has_value());
  EXPECT_EQ(exp_spec->family, DistributionFamily::kExponential);
  EXPECT_GT(exp_spec->p1, 0.0);

  // Unknown family falls back to log-normal.
  auto fallback = FitSpecFromOrderStats(DistributionFamily::kPareto, arrivals, 30);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->family, DistributionFamily::kLogNormal);
}

TEST(FitSpecTest, ScaleFloorPreventsPointMass) {
  auto spec = FitSpecEmpirical(DistributionFamily::kLogNormal, {3.0, 3.0, 3.0});
  ASSERT_TRUE(spec.has_value());
  EXPECT_GT(spec->p2, 0.0);
}

}  // namespace
}  // namespace cedar
