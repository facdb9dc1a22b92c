#include "src/stats/estimators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/online_learner.h"
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

// Property sweep: (mu, sigma, k, r) — the order-statistics fit should
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
    auto est = FitSpecFromOrderStats(DistributionFamily::kLogNormal, arrivals, k);
    if (est.has_value()) {
      mu_sum += est->p1;
      sigma_sum += est->p2;
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
    auto os = FitSpecFromOrderStats(DistributionFamily::kLogNormal, arrivals, 50);
    auto emp = FitSpecEmpirical(DistributionFamily::kLogNormal, arrivals);
    ASSERT_TRUE(os.has_value());
    ASSERT_TRUE(emp.has_value());
    os_err += std::fabs(os->p1 - mu);
    emp_err += std::fabs(emp->p1 - mu);
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
    auto est = FitSpecFromOrderStats(DistributionFamily::kNormal, samples, 50);
    ASSERT_TRUE(est.has_value());
    mean_sum += est->p1;
    sd_sum += est->p2;
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
    auto est = FitSpecFromOrderStats(DistributionFamily::kExponential, samples, 40);
    ASSERT_TRUE(est.has_value());
    mean_sum += 1.0 / est->p1;
  }
  EXPECT_NEAR(mean_sum / kTrials, 2.0, 0.15);  // 1/lambda = 2
}

TEST(EstimatorEdgeCasesTest, TooFewSamples) {
  EXPECT_FALSE(FitSpecFromOrderStats(DistributionFamily::kLogNormal, {1.0}, 50).has_value());
  EXPECT_FALSE(FitSpecFromOrderStats(DistributionFamily::kNormal, {1.0}, 50).has_value());
  EXPECT_FALSE(FitSpecFromOrderStats(DistributionFamily::kExponential, {}, 50).has_value());
  for (auto family : {DistributionFamily::kLogNormal, DistributionFamily::kNormal,
                      DistributionFamily::kExponential}) {
    EXPECT_FALSE(FitSpecEmpirical(family, {1.0}).has_value());
  }
}

TEST(EstimatorEdgeCasesTest, MoreSamplesThanFanoutRejected) {
  std::vector<double> five = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (auto family : {DistributionFamily::kLogNormal, DistributionFamily::kNormal,
                      DistributionFamily::kExponential}) {
    EXPECT_FALSE(FitSpecFromOrderStats(family, five, 3).has_value());
  }
}

TEST(EstimatorEdgeCasesTest, NonPositiveTimesRejectedForLogNormal) {
  EXPECT_FALSE(FitSpecFromOrderStats(DistributionFamily::kLogNormal, {0.0, 1.0}, 10).has_value());
  EXPECT_FALSE(FitSpecFromOrderStats(DistributionFamily::kLogNormal, {-1.0, 1.0}, 10).has_value());
  EXPECT_FALSE(FitSpecEmpirical(DistributionFamily::kLogNormal, {0.0, 1.0}).has_value());
  // Normal has no such support limit.
  EXPECT_TRUE(FitSpecFromOrderStats(DistributionFamily::kNormal, {-1.0, 1.0}, 10).has_value());
}

TEST(EstimatorEdgeCasesTest, IdenticalTimesGiveTheScaleFloor) {
  // The pairwise scale is 0 for identical arrivals; the spec floors it so
  // the fit is not a point mass.
  auto est = FitSpecFromOrderStats(DistributionFamily::kLogNormal, {2.0, 2.0, 2.0}, 10);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->p2, 1e-9);
  EXPECT_NEAR(est->p1, std::log(2.0), 0.5);
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
  EXPECT_DEATH(FitSpecFromOrderStats(DistributionFamily::kLogNormal, bad, 10), "ascending");
  EXPECT_DEATH(FitSpecFromOrderStats(DistributionFamily::kExponential, bad, 10), "ascending");
}

TEST(EstimatorDeathTest, UnfittableFamilyDiesNamingIt) {
  // No silent log-normal fallback: a family without a fit is a fatal error.
  const std::vector<double> arrivals = {1.0, 2.0, 3.0};
  EXPECT_DEATH(FitSpecFromOrderStats(DistributionFamily::kWeibull, arrivals, 10),
               "no fit for distribution family weibull");
  EXPECT_DEATH(FitSpecEmpirical(DistributionFamily::kPareto, arrivals),
               "no fit for distribution family pareto");
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
}

TEST(FitSpecTest, ScaleFloorPreventsPointMass) {
  auto spec = FitSpecEmpirical(DistributionFamily::kLogNormal, {3.0, 3.0, 3.0});
  ASSERT_TRUE(spec.has_value());
  EXPECT_GT(spec->p2, 0.0);
}

// "<family> <p1 bits> <p2 bits>" in hex, or "none": a pin on it fails on
// any change to a fit, the last ulp included.
std::string FitBits(const std::optional<DistributionSpec>& spec) {
  if (!spec.has_value()) {
    return "none";
  }
  char text[40];
  std::snprintf(text, sizeof(text), " %016llx %016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(spec->p1)),
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(spec->p2)));
  return DistributionFamilyName(spec->family) + text;
}

// Fifty ascending, irregularly spaced arrival times built from exact
// arithmetic alone (no RNG, no libm), so the pins below depend on the fits
// and nothing else.
std::vector<double> PinnedArrivals() {
  std::vector<double> times;
  for (int i = 0; i < 50; ++i) {
    times.push_back(2.0 + 0.02 * i * i + 0.4 * ((i * 13) % 7) / 7.0);
  }
  std::sort(times.begin(), times.end());
  return times;
}

TEST(EstimatorsTest, FitsArePinnedBitwise) {
  const std::vector<double> arrivals = PinnedArrivals();
  const std::vector<double> tied = {1.5, 2.0, 2.0, 2.0, 2.5, 4.0};
  std::vector<std::string> fits;
  for (auto family : {DistributionFamily::kLogNormal, DistributionFamily::kNormal,
                      DistributionFamily::kExponential}) {
    const std::string name = DistributionFamilyName(family);
    for (int r : {2, 10, 50}) {
      std::vector<double> prefix(arrivals.begin(), arrivals.begin() + r);
      fits.push_back(name + " os r=" + std::to_string(r) + ": " +
                     FitBits(FitSpecFromOrderStats(family, prefix, 50)));
      fits.push_back(name + " emp r=" + std::to_string(r) + ": " +
                     FitBits(FitSpecEmpirical(family, prefix)));
    }
    fits.push_back(name + " os tied: " + FitBits(FitSpecFromOrderStats(family, tied, 10)));
    fits.push_back(name + " emp tied: " + FitBits(FitSpecEmpirical(family, tied)));
  }
  OnlineLearnerOptions options;
  options.min_samples = 2;
  OnlineLearner learner(50, options);
  for (size_t n = 1; n <= arrivals.size(); ++n) {
    learner.Observe(arrivals[n - 1]);
    fits.push_back("learner n=" + std::to_string(n) + ": " + FitBits(learner.CurrentFit()));
  }
  const std::vector<std::string> pinned = {
    "lognormal os r=2: lognormal 3ffa4f5bad316234 3fdb117aafec6bfd",
    "lognormal emp r=2: lognormal 3fe8d92a28933752 3fbe2e2a4c9e4a0f",
    "lognormal os r=10: lognormal 3ffbe4693fb16ba4 3fe55f1b808824a3",
    "lognormal emp r=10: lognormal 3fefc6ae159d0896 3fca45999fecb25f",
    "lognormal os r=50: lognormal 400500e6ba668143 3fef9328c659fb6b",
    "lognormal emp r=50: lognormal 4003efbf65698db4 3ff02168cd9f5677",
    "lognormal os tied: lognormal 3feea9f2a93d5813 3fe5545b71859b3a",
    "lognormal emp tied: lognormal 3fe98885a5b0a261 3fd52bdafaf8acdb",
    "normal os r=2: normal 401047ed5019c0f8 3fed749f73e0df4d",
    "normal emp r=2: normal 40017390d2a6c406 3fd06bc94311bac4",
    "normal os r=10: normal 4013e16ca393747e 4000672e601ac089",
    "normal emp r=10: normal 400605d9f7390d2a 3fe31eb08900eb34",
    "normal os r=50: normal 402b0a1999743f7c 402c59a9eeebbbf0",
    "normal emp r=50: normal 403256872b020c4a 402d85d4f92c7250",
    "normal os tied: normal 4004adac981d8e13 3ffcdd32ae05d603",
    "normal emp tied: normal 4002aaaaaaaaaaab 3fec04dfe165a1f9",
    "exponential os r=2: exponential 3f91636afb593ee7 0000000000000000",
    "exponential emp r=2: exponential 3fdd56acadaf3175 0000000000000000",
    "exponential os r=10: exponential 3fabdce48e19c0d4 0000000000000000",
    "exponential emp r=10: exponential 3fd73fa2796c89a2 0000000000000000",
    "exponential os r=50: exponential 3fabeb8ffbfac042 0000000000000000",
    "exponential emp r=50: exponential 3fabeb8ffbfac042 0000000000000000",
    "exponential os tied: exponential 3fc999999999999a 0000000000000000",
    "exponential emp tied: exponential 3fdb6db6db6db6db 0000000000000000",
    "learner n=1: none",
    "learner n=2: lognormal 3ffa4f5bad316234 3fdb117aafec6bfd",
    "learner n=3: lognormal 3ff41cfcc0887c02 3fcb68febfed1cad",
    "learner n=4: lognormal 3ff2f26c9dec1e44 3fc6eb3ce5bcbc13",
    "learner n=5: lognormal 3ff3382277bbde92 3fc9594072fa1bbb",
    "learner n=6: lognormal 3ff41de9b8e16535 3fcf3812b055c1aa",
    "learner n=7: lognormal 3ff54f7df2832761 3fd38542daa9c95f",
    "learner n=8: lognormal 3ff6a05abacb2df0 3fd7f8294aa89ce5",
    "learner n=9: lognormal 3ffaeb2fa295ca74 3fe4119509ee39aa",
    "learner n=10: lognormal 3ffbe4693fb16ba4 3fe55f1b808824a3",
    "learner n=11: lognormal 3ffcd8c431735c4d 3fe6d0f0680433f7",
    "learner n=12: lognormal 3ffdc0b90dcef35f 3fe84f60adbcffbd",
    "learner n=13: lognormal 3ffe983b23b795e3 3fe9ca81103e722c",
    "learner n=14: lognormal 3fff5d843cecf771 3feb37ccd3ab789e",
    "learner n=15: lognormal 400008224fe3aebf 3fec908e62ae6e73",
    "learner n=16: lognormal 4000a7b08d406c6a 3ff007ca6374fd1a",
    "learner n=17: lognormal 4000ed1ca38e8e05 3ff072eec539458f",
    "learner n=18: lognormal 40012b6f6f04a91a 3ff0d659a5e74968",
    "learner n=19: lognormal 40016349c664340a 3ff13117122edb58",
    "learner n=20: lognormal 40019553b4137b0e 3ff182ac3f44a2ee",
    "learner n=21: lognormal 4001c233c7b91afe 3ff1caf307e12a0e",
    "learner n=22: lognormal 4001ea89c4c3998e 3ff209ff6b1a4c46",
    "learner n=23: lognormal 400219e027e378b4 3ff2bcd3b6ae6b62",
    "learner n=24: lognormal 40023ce1e0b1ad6f 3ff2dcc9d1ddf4de",
    "learner n=25: lognormal 40025cd3aeea1339 3ff2f637c7fb35c9",
    "learner n=26: lognormal 40027a296f157d73 3ff30948aff7ff0a",
    "learner n=27: lognormal 4002954c7480be6a 3ff31634adcf04a1",
    "learner n=28: lognormal 4002ae9c3cbf1240 3ff31d3bcd757147",
    "learner n=29: lognormal 4002c66f4204684e 3ff31ea244e94896",
    "learner n=30: lognormal 4002d7f13c157b9d 3ff3552b20478084",
    "learner n=31: lognormal 4002efa58ec25476 3ff3470ddfd36c20",
    "learner n=32: lognormal 400306892c58ebc6 3ff334b6fa1c0fa3",
    "learner n=33: lognormal 40031cda32396895 3ff31e53d701a5ac",
    "learner n=34: lognormal 400332d1c25d629a 3ff304111e6e6b0c",
    "learner n=35: lognormal 400348a4c69f4fd7 3ff2e619e5d0ab92",
    "learner n=36: lognormal 40035e84ac8e81af 3ff2c49714af4b4e",
    "learner n=37: lognormal 40036d116944ff00 3ff2bb206eb1b3a0",
    "learner n=38: lognormal 400384f2e7e9c16c 3ff290feb1e8ce24",
    "learner n=39: lognormal 40039d4aa80ba12b 3ff263f57019171c",
    "learner n=40: lognormal 4003b64562fb1542 3ff2341a935ed1ff",
    "learner n=41: lognormal 4003d00ff13d95db 3ff201810d309e88",
    "learner n=42: lognormal 4003ead84dc3fbb6 3ff1cc38677e4729",
    "learner n=43: lognormal 400406ced455a162 3ff1944c3fb76480",
    "learner n=44: lognormal 40041e85907fb0c9 3ff164b31201bc0a",
    "learner n=45: lognormal 40043e4f2e843261 3ff126ea3191fb38",
    "learner n=46: lognormal 40045fe653838b1e 3ff0e69912386c1b",
    "learner n=47: lognormal 4004839f13b9656e 3ff0a3ae46c30bda",
    "learner n=48: lognormal 4004a9e60904ae9b 3ff05e0adbf3c6a6",
    "learner n=49: lognormal 4004d3548402ca38 3ff0157934b50e2e",
    "learner n=50: lognormal 400500e6ba668143 3fef9328c659fb6b",
  };
  ASSERT_EQ(fits.size(), pinned.size());
  for (size_t i = 0; i < fits.size(); ++i) {
    EXPECT_EQ(fits[i], pinned[i]);
  }
}

}  // namespace
}  // namespace cedar
