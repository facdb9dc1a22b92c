#include "src/core/online_learner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/estimators.h"
#include "src/stats/rng.h"

namespace cedar {
namespace {

OnlineLearnerOptions TestOptions(int min_samples = 2) {
  OnlineLearnerOptions options;
  options.min_samples = min_samples;
  return options;
}

TEST(OnlineLearnerTest, NoFitBeforeMinSamples) {
  OnlineLearner learner(50, TestOptions(5));
  for (int i = 0; i < 4; ++i) {
    learner.Observe(static_cast<double>(i + 1));
    EXPECT_FALSE(learner.CurrentFit().has_value()) << "after " << i + 1 << " samples";
  }
  learner.Observe(5.0);
  EXPECT_TRUE(learner.CurrentFit().has_value());
}

TEST(OnlineLearnerTest, FitConvergesToTruth) {
  LogNormalDistribution truth(2.77, 0.84);
  Rng rng(42);
  const int kTrials = 200;
  double mu_sum = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> samples(50);
    for (auto& s : samples) {
      s = truth.Sample(rng);
    }
    std::sort(samples.begin(), samples.end());
    OnlineLearner learner(50, TestOptions());
    for (int i = 0; i < 25; ++i) {
      learner.Observe(samples[static_cast<size_t>(i)]);
    }
    auto fit = learner.CurrentFit();
    ASSERT_TRUE(fit.has_value());
    mu_sum += fit->p1;
  }
  EXPECT_NEAR(mu_sum / kTrials, 2.77, 0.08);
}

TEST(OnlineLearnerTest, RepeatedFitsAgreeUntilNewObservation) {
  OnlineLearner learner(10, TestOptions());
  learner.Observe(1.0);
  learner.Observe(2.0);
  auto first = learner.CurrentFit();
  auto second = learner.CurrentFit();
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->p1, second->p1);
  learner.Observe(10.0);
  auto third = learner.CurrentFit();
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(first->p1, third->p1);
}

TEST(OnlineLearnerTest, EmpiricalModeIsBiasedLow) {
  LogNormalDistribution truth(3.0, 1.0);
  Rng rng(7);
  std::vector<double> samples(50);
  for (auto& s : samples) {
    s = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());

  OnlineLearner order_stats(50, TestOptions());
  OnlineLearnerOptions emp_options = TestOptions();
  emp_options.use_empirical_estimates = true;
  OnlineLearner empirical(50, emp_options);
  for (int i = 0; i < 10; ++i) {
    order_stats.Observe(samples[static_cast<size_t>(i)]);
    empirical.Observe(samples[static_cast<size_t>(i)]);
  }
  auto os_fit = order_stats.CurrentFit();
  auto emp_fit = empirical.CurrentFit();
  ASSERT_TRUE(os_fit.has_value());
  ASSERT_TRUE(emp_fit.has_value());
  // The biased estimate sees only the 10 fastest of 50: far below mu.
  EXPECT_LT(emp_fit->p1, os_fit->p1);
}

// "<p1 bits> <p2 bits>" of a fit, or "none": equal strings are equal fits
// to the last ulp.
std::string FitBits(const std::optional<DistributionSpec>& spec) {
  if (!spec.has_value()) {
    return "none";
  }
  return std::to_string(std::bit_cast<uint64_t>(spec->p1)) + " " +
         std::to_string(std::bit_cast<uint64_t>(spec->p2));
}

// The learner keeps running sums, and its fit after every arrival must be,
// bitwise, the batch fit of the arrivals so far: with ties, and, for
// log-normal, with an arrival <= 0 that leaves no fit from then on.
TEST(OnlineLearnerTest, EveryFitIsBitwiseTheBatchFitOfThePrefix) {
  Rng rng(3);
  std::vector<double> arrivals;
  double t = 0.5;
  for (int i = 0; i < 40; ++i) {
    if (i % 7 != 3) {  // every seventh arrival ties the one before it
      t += rng.NextDouble();
    }
    arrivals.push_back(t);
  }
  // Log-normal after an arrival <= 0: the fit is gone for good.
  std::vector<double> nonpositive;
  for (double a : arrivals) {
    nonpositive.push_back(a - arrivals[5]);  // arrival 6 is exactly 0
  }
  struct Case {
    DistributionFamily family;
    const std::vector<double>* times;
  };
  for (const Case& c : {Case{DistributionFamily::kLogNormal, &arrivals},
                        Case{DistributionFamily::kNormal, &arrivals},
                        Case{DistributionFamily::kExponential, &arrivals},
                        Case{DistributionFamily::kLogNormal, &nonpositive},
                        Case{DistributionFamily::kNormal, &nonpositive},
                        Case{DistributionFamily::kExponential, &nonpositive}}) {
    const int k = 50;
    OnlineLearnerOptions options = TestOptions();
    options.family = c.family;
    OnlineLearner learner(k, options);
    std::vector<double> prefix;
    for (double a : *c.times) {
      learner.Observe(a);
      prefix.push_back(a);
      const std::string batch = FitBits(FitSpecFromOrderStats(c.family, prefix, k));
      EXPECT_EQ(FitBits(learner.CurrentFit()), prefix.size() < 2 ? "none" : batch)
          << DistributionFamilyName(c.family) << " after " << prefix.size() << " arrivals";
    }
    if (c.times == &nonpositive && c.family != DistributionFamily::kNormal) {
      EXPECT_FALSE(learner.CurrentFit().has_value()) << DistributionFamilyName(c.family);
    } else {
      EXPECT_TRUE(learner.CurrentFit().has_value()) << DistributionFamilyName(c.family);
    }
  }
}

TEST(OnlineLearnerTest, NormalFamilySupported) {
  OnlineLearnerOptions options = TestOptions();
  options.family = DistributionFamily::kNormal;
  OnlineLearner learner(10, options);
  learner.Observe(-3.0);  // negative observations fine for normal
  learner.Observe(1.0);
  auto fit = learner.CurrentFit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_EQ(fit->family, DistributionFamily::kNormal);
}

TEST(OnlineLearnerDeathTest, RejectsDecreasingArrivals) {
  OnlineLearner learner(10, TestOptions());
  learner.Observe(5.0);
  EXPECT_DEATH(learner.Observe(4.0), "non-decreasing");
}

TEST(OnlineLearnerDeathTest, RejectsMoreThanFanout) {
  OnlineLearner learner(2, TestOptions());
  learner.Observe(1.0);
  learner.Observe(2.0);
  EXPECT_DEATH(learner.Observe(3.0), "fanout");
}

TEST(OnlineLearnerDeathTest, MinSamplesBelowTwoRejected) {
  EXPECT_DEATH(OnlineLearner(10, TestOptions(1)), "pairwise");
}

TEST(OnlineLearnerDeathTest, UnfittableFamilyDiesAtConstruction) {
  OnlineLearnerOptions options = TestOptions();
  options.family = DistributionFamily::kWeibull;
  EXPECT_DEATH(OnlineLearner(10, options), "cannot fit family weibull");
}

}  // namespace
}  // namespace cedar
