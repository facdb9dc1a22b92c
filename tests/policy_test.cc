#include "src/core/policies.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/quality.h"

namespace cedar {
namespace {

// A reusable two-level context with deadline 100, carrying one query's memo.
class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : tree_(TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), 20,
                                 std::make_shared<LogNormalDistribution>(2.5, 0.6), 10)),
        upper_(TabulateCdf(*tree_.stage(1).duration, 100.0, 401)) {
    ctx_.tier = 0;
    ctx_.deadline = 100.0;
    ctx_.start_offset = 0.0;
    ctx_.fanout = 20;
    ctx_.offline_tree = &tree_;
    ctx_.upper_quality = &upper_;
    ctx_.epsilon = 0.25;
    ctx_.memo = &memo_;
  }

  TreeSpec tree_;
  PiecewiseLinear upper_;
  QueryMemo memo_;
  AggregatorContext ctx_;
};

TEST_F(PolicyTest, FixedWaitReturnsConstant) {
  FixedWaitPolicy policy(33.0);
  policy.BeginQuery(ctx_, nullptr);
  EXPECT_DOUBLE_EQ(policy.DecideInitialWait(ctx_), 33.0);
  // Arrivals do not change the decision.
  EXPECT_DOUBLE_EQ(policy.DecideOnArrival(ctx_, 5.0, {5.0}), 33.0);
}

TEST_F(PolicyTest, EqualSplitHalvesTwoLevelDeadline) {
  EqualSplitPolicy policy;
  policy.BeginQuery(ctx_, nullptr);
  EXPECT_DOUBLE_EQ(policy.DecideInitialWait(ctx_), 50.0);
}

TEST_F(PolicyTest, ProportionalSplitUsesOfflineMeans) {
  ProportionalSplitPolicy policy;
  policy.BeginQuery(ctx_, nullptr);
  double mu1 = tree_.stage(0).duration->Mean();
  double mu2 = tree_.stage(1).duration->Mean();
  EXPECT_NEAR(policy.DecideInitialWait(ctx_), 100.0 * mu1 / (mu1 + mu2), 1e-9);
}

TEST_F(PolicyTest, MeanSubtractReservesUpperMean) {
  MeanSubtractPolicy policy;
  policy.BeginQuery(ctx_, nullptr);
  double mu2 = tree_.stage(1).duration->Mean();
  EXPECT_NEAR(policy.DecideInitialWait(ctx_), 100.0 - mu2, 1e-9);
}

TEST_F(PolicyTest, MeanSubtractClampsAtZero) {
  AggregatorContext tight = ctx_;
  tight.deadline = 5.0;  // upper mean ~14.6 exceeds the deadline
  MeanSubtractPolicy policy;
  policy.BeginQuery(tight, nullptr);
  EXPECT_DOUBLE_EQ(policy.DecideInitialWait(tight), 0.0);
}

TEST_F(PolicyTest, OfflineOptimalWithinBudgetAndStable) {
  OfflineOptimalPolicy policy;
  policy.BeginQuery(ctx_, nullptr);
  double wait = policy.DecideInitialWait(ctx_);
  EXPECT_GT(wait, 0.0);
  EXPECT_LT(wait, 100.0);
  // Does not react to arrivals (no online learning).
  EXPECT_DOUBLE_EQ(policy.DecideOnArrival(ctx_, 3.0, {3.0}), wait);
}

TEST_F(PolicyTest, CedarStartsAtOfflineOptimal) {
  OfflineOptimalPolicy offline;
  CedarPolicy cedar;
  QueryMemo cedar_memo;  // so Cedar computes the wait rather than reading it
  AggregatorContext cedar_ctx = ctx_;
  cedar_ctx.memo = &cedar_memo;
  offline.BeginQuery(ctx_, nullptr);
  cedar.BeginQuery(cedar_ctx, nullptr);
  EXPECT_DOUBLE_EQ(cedar.DecideInitialWait(cedar_ctx), offline.DecideInitialWait(ctx_));
}

TEST_F(PolicyTest, CedarAdaptsToSlowArrivals) {
  // Feed arrivals drawn from a much slower distribution than the offline
  // fit; once min_samples arrive, the wait should move up.
  CedarPolicyOptions options;
  options.learner.min_samples = 4;
  CedarPolicy cedar(options);
  cedar.BeginQuery(ctx_, nullptr);
  double initial = cedar.DecideInitialWait(ctx_);

  LogNormalDistribution slow(3.3, 0.8);  // offline is lognormal(2.0, 0.8)
  Rng rng(5);
  std::vector<double> samples(20);
  for (auto& s : samples) {
    s = slow.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  std::vector<double> so_far;
  double wait = initial;
  for (int i = 0; i < 12; ++i) {
    so_far.push_back(samples[static_cast<size_t>(i)]);
    wait = cedar.DecideOnArrival(ctx_, so_far.back(), so_far);
  }
  EXPECT_GT(wait, initial) << "slower-than-offline arrivals should lengthen the wait";
}

TEST_F(PolicyTest, CedarReoptimizeEveryNThrottlesUpdates) {
  CedarPolicyOptions options;
  options.learner.min_samples = 2;
  options.reoptimize_every = 4;
  CedarPolicy cedar(options);
  cedar.BeginQuery(ctx_, nullptr);
  double initial = cedar.DecideInitialWait(ctx_);
  std::vector<double> so_far;
  int changes = 0;
  double wait = initial;
  for (int i = 1; i <= 8; ++i) {
    so_far.push_back(static_cast<double>(i));
    double next = cedar.DecideOnArrival(ctx_, so_far.back(), so_far);
    if (next != wait) {
      ++changes;
      wait = next;
    }
  }
  EXPECT_LE(changes, 2) << "at most every 4th arrival may change the wait";
}

TEST_F(PolicyTest, CedarCarriesNoStateAcrossQueries) {
  // One instance runs two queries, each on a fresh memo, whose upper curves
  // differ but live at the same address (as a recycled per-query curve stack
  // would); every wait must equal that of a fresh instance, so nothing of
  // the first query leaks into the second through the policy.
  CedarPolicyOptions options;
  options.learner.min_samples = 4;
  PiecewiseLinear curves[] = {upper_,
                              TabulateCdf(LogNormalDistribution(3.6, 0.9), 100.0, 401)};
  PiecewiseLinear upper;
  AggregatorContext ctx = ctx_;
  ctx.upper_quality = &upper;

  LogNormalDistribution slow(3.0, 0.8);
  Rng rng(11);
  std::vector<double> samples(12);
  for (auto& s : samples) {
    s = slow.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  auto run_query = [&](CedarPolicy& cedar, uint64_t sequence) {
    QueryTruth truth;
    truth.sequence = sequence;
    QueryMemo memo;
    ctx.memo = &memo;
    cedar.BeginQuery(ctx, &truth);
    std::vector<double> waits = {cedar.DecideInitialWait(ctx)};
    std::vector<double> so_far;
    for (double arrival : samples) {
      so_far.push_back(arrival);
      waits.push_back(cedar.DecideOnArrival(ctx, arrival, so_far));
    }
    return waits;
  };

  CedarPolicy reused(options);
  std::vector<std::vector<double>> reused_waits;
  for (uint64_t q = 0; q < 2; ++q) {
    upper = curves[q];
    reused_waits.push_back(run_query(reused, q + 1));
    CedarPolicy fresh(options);
    EXPECT_EQ(reused_waits.back(), run_query(fresh, q + 1)) << "query " << q;
  }
  EXPECT_NE(reused_waits[0], reused_waits[1]) << "the two upper curves must change the waits";
}

TEST_F(PolicyTest, CedarUpperTierDoesNotLearn) {
  CedarPolicy cedar;  // only tier 0 learns
  AggregatorContext upper_ctx = ctx_;
  upper_ctx.tier = 1;
  upper_ctx.fanout = 10;
  cedar.BeginQuery(upper_ctx, nullptr);
  double wait = cedar.DecideInitialWait(upper_ctx);
  EXPECT_DOUBLE_EQ(cedar.DecideOnArrival(upper_ctx, 2.0, {2.0}), wait);
  EXPECT_EQ(cedar.learner(), nullptr);
}

TEST_F(PolicyTest, CedarEmpiricalNameDiffers) {
  CedarPolicyOptions options;
  options.learner.use_empirical_estimates = true;
  CedarPolicy empirical(options);
  CedarPolicy normal;
  EXPECT_EQ(empirical.name(), "cedar-empirical");
  EXPECT_EQ(normal.name(), "cedar");
}

TEST_F(PolicyTest, CloneIsIndependent) {
  CedarPolicy cedar;
  auto clone = cedar.Clone();
  clone->BeginQuery(ctx_, nullptr);
  clone->DecideInitialWait(ctx_);
  // Prototype was never started; cloning must not share learner state.
  EXPECT_EQ(cedar.learner(), nullptr);
}

TEST_F(PolicyTest, OracleUsesTheQuerysTruth) {
  OraclePolicy prototype;

  QueryTruth slow;
  slow.sequence = 1;
  slow.stage_durations.push_back(std::make_shared<LogNormalDistribution>(3.2, 0.8));
  slow.stage_durations.push_back(tree_.stage(1).duration);

  QueryTruth fast;
  fast.sequence = 2;
  fast.stage_durations.push_back(std::make_shared<LogNormalDistribution>(1.0, 0.8));
  fast.stage_durations.push_back(tree_.stage(1).duration);

  // Each query has its own memo, so each plans on its own truth.
  auto wait_for = [&](const QueryTruth& truth) {
    QueryMemo memo;
    AggregatorContext ctx = ctx_;
    ctx.memo = &memo;
    auto oracle = prototype.Clone();
    oracle->BeginQuery(ctx, &truth);
    return oracle->DecideInitialWait(ctx);
  };
  EXPECT_GT(wait_for(slow), wait_for(fast)) << "oracle must adapt its wait to the query's truth";
}

TEST_F(PolicyTest, OracleWithoutTruthFallsBackToOffline) {
  OraclePolicy oracle;
  OfflineOptimalPolicy offline;
  oracle.BeginQuery(ctx_, nullptr);
  offline.BeginQuery(ctx_, nullptr);
  EXPECT_NEAR(oracle.DecideInitialWait(ctx_), offline.DecideInitialWait(ctx_),
              ctx_.epsilon + 1e-9);
}

TEST_F(PolicyTest, QueryTruthOverlayKeepsFanouts) {
  QueryTruth truth;
  truth.stage_durations.push_back(std::make_shared<ExponentialDistribution>(1.0));
  truth.stage_durations.push_back(std::make_shared<ExponentialDistribution>(2.0));
  TreeSpec overlaid = truth.OverlayOn(tree_);
  EXPECT_EQ(overlaid.stage(0).fanout, 20);
  EXPECT_EQ(overlaid.stage(1).fanout, 10);
  EXPECT_EQ(overlaid.stage(0).duration->family(), DistributionFamily::kExponential);
}

TEST_F(PolicyTest, OverlayRejectsWrongStageCount) {
  QueryTruth truth;
  truth.stage_durations.push_back(std::make_shared<ExponentialDistribution>(1.0));
  EXPECT_DEATH(truth.OverlayOn(tree_), "mismatch");
}

TEST(CedarPolicyDeathTest, UnfittableLearnerFamilyDiesAtConstruction) {
  // The learner fits log-normal, normal and exponential only; any other
  // family must fail here, naming it, not fit log-normal in its place.
  CedarPolicyOptions options;
  options.learner.family = DistributionFamily::kWeibull;
  EXPECT_DEATH(CedarPolicy{options}, "cannot fit family weibull");
}

TEST(CedarPolicyDeathTest, UnbuildableWaitTableDiesAtConstruction) {
  // The learner fits exponentials and the families match, but no table can
  // be built for them: the policy must die here, not at its first table
  // build inside an experiment worker.
  CedarPolicyOptions options;
  options.use_wait_table = true;
  options.learner.family = DistributionFamily::kExponential;
  options.table_spec.family = DistributionFamily::kExponential;
  EXPECT_DEATH(CedarPolicy{options}, "location-scale families");

  options = CedarPolicyOptions{};
  options.use_wait_table = true;
  options.table_spec.scale_points = 1;
  EXPECT_DEATH(CedarPolicy{options}, "scale_points");
}

}  // namespace
}  // namespace cedar
