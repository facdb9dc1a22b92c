#include "src/core/wait_optimizer.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/trace/calibration.h"
#include "tests/reference_scan.h"
#include "tests/test_distributions.h"

namespace cedar {
namespace {

// Two-level helper: the upper-quality curve is just the CDF of X2.
struct TwoLevelFixture {
  TwoLevelFixture(double mu1, double sigma1, double mu2, double sigma2, int k1, int k2,
                  double deadline)
      : tree(TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(mu1, sigma1), k1,
                                std::make_shared<LogNormalDistribution>(mu2, sigma2), k2)),
        deadline(deadline),
        upper(TabulateCdf(*tree.stage(1).duration, deadline, 401)),
        epsilon(deadline / 400.0) {}

  TreeSpec tree;
  double deadline;
  PiecewiseLinear upper;
  double epsilon;
};

// The reference scan on std::pow, as Phi^k was computed before FanoutPower.
ReferenceDecision StdPowOptimizeWait(const Distribution& bottom, int fanout,
                                     const PiecewiseLinear& upper_quality, double deadline,
                                     double epsilon) {
  return ReferenceScan(
      bottom, [fanout](double phi) { return std::pow(phi, fanout); }, deadline, epsilon,
      [&](size_t, double c) { return upper_quality(deadline - c); });
}

// A scan grid (upper curve, deadline, epsilon) and the bottoms to optimize
// on it. |upper_stage| is the distribution the curve tabulates, where one
// does (the fold tests build trees from it).
struct ScanFixture {
  std::string name;
  PiecewiseLinear upper;
  double deadline;
  double epsilon;
  std::vector<std::shared_ptr<const Distribution>> bottoms;
  std::shared_ptr<const Distribution> upper_stage = nullptr;
};

// Seeded random grids, one family of each bottom on each.
std::vector<ScanFixture> RandomGrids() {
  Rng rng(20161017);
  std::vector<ScanFixture> fixtures;
  for (int trial = 0; trial < 24; ++trial) {
    double deadline = 1.0 + 999.0 * rng.NextDouble();
    double epsilon = 0.0;
    switch (trial % 3) {
      case 0:  // the default grid
        epsilon = deadline / 400.0;
        break;
      case 1:  // epsilon does not divide the deadline
        epsilon = deadline / (50.0 + 300.0 * rng.NextDouble());
        break;
      default:  // deadline < epsilon: a single clamped step
        epsilon = deadline * (1.0 + rng.NextDouble());
        break;
    }
    // Upper tiers see a curve tabulated past their remaining budget.
    double curve_max = deadline * (1.0 + rng.NextDouble());
    double upper_median = deadline * (0.05 + 0.5 * rng.NextDouble());
    LogNormalDistribution upper_stage(std::log(upper_median), 0.2 + rng.NextDouble());
    PiecewiseLinear upper = TabulateCdf(upper_stage, curve_max, 401);
    fixtures.push_back({"trial " + std::to_string(trial), std::move(upper), deadline, epsilon,
                        OneOfEachFamily(rng, deadline)});
  }
  return fixtures;
}

// Upper stages with a minimum duration: q_{n-1}(d) is 0 for small d, so
// the curve reaches 0 before the deadline.
std::vector<ScanFixture> CurvesThatReachZero() {
  Rng rng(7);
  std::vector<ScanFixture> fixtures;
  for (int trial = 0; trial < 8; ++trial) {
    const double deadline = 10.0 + 990.0 * rng.NextDouble();
    const double low = deadline * (0.1 + 0.5 * rng.NextDouble());
    const std::string where = "trial " + std::to_string(trial);
    auto uniform = std::make_shared<UniformDistribution>(low, low + 0.3 * deadline);
    fixtures.push_back({where + " uniform upper", TabulateCdf(*uniform, deadline, 401), deadline,
                        deadline / 400.0, OneOfEachFamily(rng, deadline), uniform});
    auto pareto = std::make_shared<ParetoDistribution>(low, 1.5 + rng.NextDouble());
    fixtures.push_back({where + " pareto upper", TabulateCdf(*pareto, deadline, 401), deadline,
                        deadline / 400.0, OneOfEachFamily(rng, deadline), pareto});
  }
  return fixtures;
}

void ExpectSameBits(double got, const ReferenceDecision& want, const std::string& where) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want.wait))
      << where << ": wait " << got << " vs " << want.wait;
}

TEST(WaitScanTest, BitIdenticalToReferenceLoop) {
  // On each random grid, one reused WaitScan and the one-shot OptimizeWait
  // must reproduce the reference loop bit for bit for every family and
  // fanout.
  for (const ScanFixture& f : RandomGrids()) {
    WaitScan scan(f.upper, f.deadline, f.epsilon);
    if (f.epsilon >= f.deadline) {
      EXPECT_EQ(scan.steps(), 1u);
    }
    for (const auto& bottom : f.bottoms) {
      for (int fanout : {1, 2, 50, 1000, 1 << 20}) {
        std::string where = f.name + " " + bottom->ToString() + " fanout " +
                            std::to_string(fanout);
        ReferenceDecision want =
            ReferenceOptimizeWait(*bottom, fanout, f.upper, f.deadline, f.epsilon);
        ExpectSameBits(scan.Optimize(*bottom, fanout), want, where + " (WaitScan)");
        ExpectSameBits(OptimizeWait(*bottom, fanout, f.upper, f.deadline, f.epsilon), want,
                       where + " (OptimizeWait)");
      }
    }
  }
}

TEST(WaitScanTest, WaitsMatchStdPowReference) {
  // FanoutPower moves Phi^k by a few ulps against std::pow, so the scan's
  // partial sums may move in their last bits, but no wait may change.
  std::vector<ScanFixture> fixtures = RandomGrids();
  for (ScanFixture& f : CurvesThatReachZero()) {
    fixtures.push_back(std::move(f));
  }
  for (const ScanFixture& f : fixtures) {
    const WaitScan scan(f.upper, f.deadline, f.epsilon);
    for (const auto& bottom : f.bottoms) {
      for (int fanout : {1, 2, 50, 1000, 1 << 20}) {
        const std::string where =
            f.name + " " + bottom->ToString() + " fanout " + std::to_string(fanout);
        ExpectSameBits(scan.Optimize(*bottom, fanout),
                       StdPowOptimizeWait(*bottom, fanout, f.upper, f.deadline, f.epsilon), where);
      }
    }
  }
}

// What one WaitScan::OptimizeOrBound call (by default Optimize's, elapsed
// = infinity) did, read from the wait_optimizer.* counters: the grid's
// steps, the CDF evaluations, whether it fell back to the dense Walk, and
// what it added to the bound counters; |exact| is the call's own answer.
struct SearchCount {
  long long steps = 0;
  long long cdf_evals = 0;
  long long fallbacks = 0;
  long long bound_calls = 0;
  long long bound_cdf_evals = 0;
  bool exact = true;
};

SearchCount CountSearch(const WaitScan& scan, const Distribution& bottom, int fanout,
                        double elapsed = std::numeric_limits<double>::infinity()) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& steps = registry.GetCounter("wait_optimizer.scan_steps");
  Counter& evals = registry.GetCounter("wait_optimizer.cdf_evals");
  Counter& fallbacks = registry.GetCounter("wait_optimizer.dense_fallbacks");
  Counter& bound_calls = registry.GetCounter("wait_optimizer.bound_calls");
  Counter& bound_evals = registry.GetCounter("wait_optimizer.bound_cdf_evals");
  const SearchCount before{steps.Value(),       evals.Value(),       fallbacks.Value(),
                           bound_calls.Value(), bound_evals.Value(), true};
  SetMetricsEnabled(true);
  const bool exact = scan.OptimizeOrBound(bottom, fanout, elapsed).exact;
  SetMetricsEnabled(false);
  return {steps.Value() - before.steps,
          evals.Value() - before.cdf_evals,
          fallbacks.Value() - before.fallbacks,
          bound_calls.Value() - before.bound_calls,
          bound_evals.Value() - before.bound_cdf_evals,
          exact};
}

// Checks the search on |f| against the reference loop for every bottom and
// the fanouts FanoutPower treats differently (k == 1 passes Phi itself; for
// k = 2^20 the floor is ~0.99996).
void ExpectPrunedMatchesReference(const ScanFixture& f) {
  const WaitScan scan(f.upper, f.deadline, f.epsilon);
  for (const auto& bottom : f.bottoms) {
    for (int fanout : {1, 2, 50, 1000, 1 << 20}) {
      ExpectSameBits(scan.Optimize(*bottom, fanout),
                     ReferenceOptimizeWait(*bottom, fanout, f.upper, f.deadline, f.epsilon),
                     f.name + " " + bottom->ToString() + " fanout " + std::to_string(fanout));
    }
  }
}

bool HasFallingSample(const PiecewiseLinear& curve) {
  const std::vector<double>& ys = curve.ys();
  for (size_t i = 1; i < ys.size(); ++i) {
    if (ys[i] < ys[i - 1]) {
      return true;
    }
  }
  return false;
}

// Random 3-level trees of narrow log-normal stages whose stage-1 fold has a
// falling sample. A folded curve can fall by an ulp or two from one sample
// to the next (each sample is its own rounded scan), so a scan's u_j can
// rise as c grows and Settled must count the rises.
struct NonMonotoneFold {
  TreeSpec tree;
  double deadline;
  std::string name;
};

std::vector<NonMonotoneFold> NonMonotoneFolds() {
  Rng rng(20161018);
  std::vector<NonMonotoneFold> folds;
  for (int trial = 0; trial < 1500 && folds.size() < 4; ++trial) {
    const double deadline = 50.0 + 950.0 * rng.NextDouble();
    std::vector<StageSpec> stages;
    for (int stage = 0; stage < 3; ++stage) {
      const double median = deadline * (0.01 + 0.5 * rng.NextDouble());
      const double sigma = 0.01 + 0.3 * rng.NextDouble();
      const int fanout = 1 + static_cast<int>(200.0 * rng.NextDouble());
      stages.emplace_back(std::make_shared<LogNormalDistribution>(std::log(median), sigma),
                          fanout);
    }
    TreeSpec tree(std::move(stages));
    if (HasFallingSample(BuildUpperQualityCurves(tree, deadline)[1])) {
      folds.push_back({std::move(tree), deadline, "trial " + std::to_string(trial)});
    }
  }
  return folds;
}

TEST(WaitScanTest, PrunedScanExactOnNonMonotoneFolds) {
  // Scans each non-monotone fold at the full and at a partial budget.
  Rng rng(20161020);
  const std::vector<NonMonotoneFold> folds = NonMonotoneFolds();
  EXPECT_GE(folds.size(), 4u) << "too few non-monotone folds to exercise the rise term";
  for (const NonMonotoneFold& fold : folds) {
    const PiecewiseLinear upper = BuildUpperQualityCurves(fold.tree, fold.deadline)[1];
    const double epsilon = fold.deadline / 400.0;
    ExpectPrunedMatchesReference(
        {fold.name, upper, fold.deadline, epsilon, OneOfEachFamily(rng, fold.deadline)});
    const double remaining = fold.deadline * (0.2 + 0.7 * rng.NextDouble());
    ExpectPrunedMatchesReference({fold.name + " remaining " + std::to_string(remaining), upper,
                                  remaining, epsilon, OneOfEachFamily(rng, remaining)});
  }
}

TEST(WaitScanTest, PrunedScanExactOnCurvesThatReachZero) {
  // The curve reaches 0 before the deadline, so the bound's u_{j+1} term
  // vanishes there.
  for (const ScanFixture& f : CurvesThatReachZero()) {
    ExpectPrunedMatchesReference(f);
  }
}

TEST(OneGridTest, WaitScanWalksTheFoldsGrid) {
  // With the curve spacing h as epsilon, a WaitScan at remaining budget
  // h g has the points of the fold's sample g. The scan on that grid (the
  // reference's wait-scan form) reads the upper curve interpolated at
  // h g - c_j where the fold reads the sample g - j, so its running max and
  // the fold's sample agree to a few ulps of 1, the scale of q's terms.
  // (Near 0, where q is a cancelling sum, its own ulps are far finer.)
  Rng rng(20161021);
  const QualityGridOptions grid;
  for (int levels : {2, 3}) {
    const double deadline = 10.0 + 990.0 * rng.NextDouble();
    const double h = grid.Epsilon(deadline);
    const auto bottoms = OneOfEachFamily(rng, deadline);
    const auto uppers = OneOfEachFamily(rng, deadline);
    for (size_t f = 0; f < bottoms.size(); ++f) {
      for (int fanout : {2, 50}) {
        std::vector<StageSpec> stages;
        stages.emplace_back(bottoms[f], fanout);
        for (int i = 1; i < levels; ++i) {
          stages.emplace_back(uppers[(f + static_cast<size_t>(i)) % uppers.size()], 1 + 3 * i);
        }
        const TreeSpec tree(std::move(stages));
        const auto stack = BuildQualityCurveStack(tree, deadline, grid);
        const std::vector<double>& fold = stack[0].ys();
        for (size_t g = 1; g < fold.size(); ++g) {
          const double budget = h * static_cast<double>(g);
          ASSERT_EQ(WaitScan(stack[1], budget, h).steps(), g);
          const double got = ReferenceOptimizeWait(*bottoms[f], fanout, stack[1], budget, h).best_q;
          EXPECT_LE(std::fabs(got - fold[g]), 8.0 * DBL_EPSILON)
              << bottoms[f]->ToString() << " levels " << levels << " fanout " << fanout
              << " sample " << g << ": " << got << " vs " << fold[g];
        }
      }
    }
  }
}

TEST(OneGridTest, StepCountIsThePointsBelowTheDeadline) {
  // An aggregator's remaining budget is rarely on the grid; its scan still
  // has one step per indexed point epsilon * j below it.
  Rng rng(20161022);
  const QualityGridOptions grid;
  const PiecewiseLinear upper = TabulateCdf(ExponentialDistribution(0.01), 1000.0, 401);
  for (int pair = 0; pair < 5000; ++pair) {
    const double deadline = 1.0 + 999.0 * rng.NextDouble();
    const double remaining = deadline * rng.NextDouble();
    const double epsilon = grid.Epsilon(deadline);
    size_t below = 0;
    while (epsilon * static_cast<double>(below) < remaining) {
      ++below;
    }
    ASSERT_EQ(WaitScan(upper, remaining, epsilon).steps(), below)
        << "deadline " << deadline << " remaining " << remaining;
  }
}

// Every sample of every curve in |got| bitwise equal to |want|'s.
void ExpectSameCurves(const std::vector<PiecewiseLinear>& got,
                      const std::vector<PiecewiseLinear>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ys().size(), want[i].ys().size()) << where;
    for (size_t g = 0; g < got[i].ys().size(); ++g) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].ys()[g]), std::bit_cast<uint64_t>(want[i].ys()[g]))
          << where << " stage " << i << " sample " << g;
    }
  }
}

TEST(OneGridTest, PrunedFoldExactOnNonMonotoneCurves) {
  // Each family folded under a non-monotone stage-1 curve, whose falls are
  // the fold's rises.
  Rng rng(20161023);
  for (const NonMonotoneFold& fold : NonMonotoneFolds()) {
    for (const auto& bottom : OneOfEachFamily(rng, fold.deadline)) {
      for (int fanout : {1, 50}) {
        std::vector<StageSpec> stages = fold.tree.stages();
        stages[0] = StageSpec(bottom, fanout);
        const TreeSpec tree(std::move(stages));
        ExpectSameCurves(BuildQualityCurveStack(tree, fold.deadline),
                         ReferenceStack(tree, fold.deadline),
                         fold.name + " " + bottom->ToString() + " fanout " +
                             std::to_string(fanout));
      }
    }
  }
}

TEST(OneGridTest, PrunedFoldExactOnCurvesThatReachZero) {
  for (const ScanFixture& f : CurvesThatReachZero()) {
    for (const auto& bottom : f.bottoms) {
      for (int fanout : {1, 50}) {
        const TreeSpec tree = TreeSpec::TwoLevel(bottom, fanout, f.upper_stage, 10);
        ExpectSameCurves(BuildQualityCurveStack(tree, f.deadline),
                         ReferenceStack(tree, f.deadline),
                         f.name + " " + bottom->ToString() + " fanout " + std::to_string(fanout));
      }
    }
  }
}

TEST(WaitScanTest, PrunedScanCountsTheCurvesRises) {
  // Hand-made 4-step grid (deadline 4, epsilon 1) whose curve dips to 0 and
  // comes back: u = q_{n-1}(4 - c) reads 1, 0.5, 0, 1, 1 at c = 0..4. With
  // Normal(0, 4) and k = 2 the partial sum is -0.08 and -0.20 after steps 1
  // and 2, then +0.10 and +0.17 after steps 3 and 4. Without the rise term
  // Walk's bound would stop after step 1 and answer wait 0, and the
  // search's block bounds would miss the climb inside (0, 4].
  const auto bump = PiecewiseLinear::FromUniform(0.0, 1.0, {1.0, 1.0, 0.0, 0.5, 1.0});
  const NormalDistribution bottom(0.0, 4.0);
  const WaitScan scan(bump, 4.0, 1.0);
  const ReferenceDecision want = ReferenceOptimizeWait(bottom, 2, bump, 4.0, 1.0);
  EXPECT_EQ(want.wait, 4.0);
  EXPECT_GT(want.best_q, 0.16);
  ExpectSameBits(scan.Optimize(bottom, 2), want, "bump");
}

TEST(WaitScanTest, SearchExactOnBumpyCurves) {
  // Seeded random piecewise-linear curves on a 400-step grid: u rises and
  // falls by up to 1 between knots, so the search's blocks span large
  // rises (bounds that drop them miss the climbs inside) and the objective
  // has several peaks (a round that stops bounding a contending node can
  // miss a near tie between them).
  Rng rng(1);
  long long fallbacks = 0;
  long long calls = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int knots = 4 + static_cast<int>(8.0 * rng.NextDouble());
    std::vector<double> ys;
    for (int i = 0; i <= knots; ++i) {
      ys.push_back(rng.NextDouble());
    }
    const auto upper = PiecewiseLinear::FromUniform(0.0, 400.0 / knots, ys);
    const WaitScan scan(upper, 400.0, 1.0);
    for (const auto& bottom : OneOfEachFamily(rng, 400.0)) {
      for (int fanout : {1, 2, 50, 1000}) {
        ExpectSameBits(scan.Optimize(*bottom, fanout),
                       ReferenceOptimizeWait(*bottom, fanout, upper, 400.0, 1.0),
                       "trial " + std::to_string(trial) + " " + bottom->ToString() + " fanout " +
                           std::to_string(fanout));
        if (fanout == 50) {
          fallbacks += CountSearch(scan, *bottom, fanout).fallbacks;
          ++calls;
        }
      }
    }
  }
  EXPECT_LT(fallbacks, calls / 2) << "the search must decide most of these itself";
}

// GainLossScan::Walk over a hand-made grid: Phi_X1(c_j) of |bottom| at
// c_j = j, q_{n-1} read from |upper| (u_j), Phi^k of |fanout|. Returns the
// steps Walk ran; |*best| gets its best point.
size_t WalkHandGrid(const Distribution& bottom, int fanout, const std::vector<double>& upper,
                    size_t* best) {
  std::vector<double> rises(upper.size() + 1, 0.0);  // R_{j-1} at point j
  for (size_t j = upper.size() - 1; j > 0; --j) {
    rises[j] = rises[j + 1] + std::max(0.0, upper[j] - upper[j - 1]);
  }
  const FanoutPower power(fanout);
  GainLossScan scan;
  const size_t ran = scan.Walk(
      upper.size() - 1, [&](size_t j) { return bottom.Cdf(static_cast<double>(j)); },
      [&](size_t, double phi) { return power(phi); }, [&](size_t j) { return upper[j]; },
      [&](size_t j) { return rises[j]; });
  *best = scan.best_point;
  return ran;
}

TEST(WaitScanTest, PrunedScanStopsWhenTheBoundProvesTheBest) {
  // The same grid with a cliff: u reads 1, 0.5, 0, 0, 0. After step 1 the
  // partial sum is -0.08 and every later gain is (Phi2 - Phi) * 0, so
  // Walk's bound q_1 + (1 - Phi_1) u_2 proves the best (0, at wait 0) final
  // after one step. A bound that read u_1 = 0.5 instead would run two. The
  // search proves the same answer without falling back to Walk.
  const NormalDistribution bottom(0.0, 4.0);
  size_t best = 99;
  EXPECT_EQ(WalkHandGrid(bottom, 2, {1.0, 0.5, 0.0, 0.0, 0.0}, &best), 1u);
  EXPECT_EQ(best, 0u);
  const auto cliff = PiecewiseLinear::FromUniform(0.0, 1.0, {0.0, 0.0, 0.0, 0.5, 1.0});
  const WaitScan scan(cliff, 4.0, 1.0);
  ExpectSameBits(scan.Optimize(bottom, 2), ReferenceOptimizeWait(bottom, 2, cliff, 4.0, 1.0),
                 "cliff");
  const SearchCount count = CountSearch(scan, bottom, 2);
  EXPECT_EQ(count.steps, 4);
  EXPECT_EQ(count.fallbacks, 0);
  EXPECT_LE(count.cdf_evals, 5);
}

TEST(WaitScanTest, TiesAtSaturationFallBackToTheLaterWait) {
  // Once every child has arrived (Phi == 1, mid-grid here) each later step
  // adds exactly 0, so q ties the best to the end of the grid and ">= bestQ"
  // picks the deadline. Walk never settles a tie (Settled needs the bound
  // strictly below best_q), and the search cannot prove one beyond
  // rounding, so it falls back to Walk, which runs the whole grid.
  const double deadline = 100.0;
  const PiecewiseLinear upper = TabulateCdf(UniformDistribution(0.0, 10.0), deadline, 401);
  const UniformDistribution bottom(0.0, 50.0);
  const WaitScan scan(upper, deadline, deadline / 400.0);
  for (int fanout : {1, 2, 50}) {
    const std::string where = "fanout " + std::to_string(fanout);
    const ReferenceDecision want =
        ReferenceOptimizeWait(bottom, fanout, upper, deadline, deadline / 400.0);
    EXPECT_EQ(want.wait, deadline);
    ExpectSameBits(scan.Optimize(bottom, fanout), want, where);
    EXPECT_EQ(CountSearch(scan, bottom, fanout).fallbacks, 1) << where;
    // The same on a hand-made grid: Phi reads 0, 0.5, 1, 1, 1 under a flat
    // curve, so q ties its best after step 2 and Walk runs all four steps.
    size_t best = 0;
    EXPECT_EQ(WalkHandGrid(UniformDistribution(0.0, 2.0), fanout, {1.0, 1.0, 1.0, 1.0, 1.0}, &best),
              4u)
        << where;
    EXPECT_EQ(best, 4u) << where;
  }
}

TEST(WaitScanTest, ZeroCdfFallsBackToTheDeadline) {
  // No child can arrive before the deadline (Phi == 0 throughout): every
  // step adds exactly 0, every wait ties and the last one, the deadline,
  // wins. The search falls back to Walk.
  const double deadline = 100.0;
  const PiecewiseLinear upper = TabulateCdf(UniformDistribution(0.0, 10.0), deadline, 401);
  const UniformDistribution bottom(200.0, 300.0);
  const WaitScan scan(upper, deadline, deadline / 400.0);
  for (int fanout : {1, 50}) {
    const std::string where = "fanout " + std::to_string(fanout);
    const ReferenceDecision want =
        ReferenceOptimizeWait(bottom, fanout, upper, deadline, deadline / 400.0);
    EXPECT_EQ(want.wait, deadline);
    ExpectSameBits(scan.Optimize(bottom, fanout), want, where);
    EXPECT_EQ(CountSearch(scan, bottom, fanout).fallbacks, 1) << where;
  }
}

TEST(WaitScanTest, NearTieFallsBackToWalk) {
  // Deadline 2, epsilon 1, Uniform(0, 4) and k = 2: u reads 1, 0.7 and
  // 0.3 - 1e-15 at c = 0, 1, 2, so q_1 = 0.175 and q_2 falls short of it by
  // ~4.4e-16, far inside the search's rounding margin. Only the dense scan
  // can order the two, and it picks wait 1.
  const auto near_tie = PiecewiseLinear::FromUniform(0.0, 1.0, {0.3 - 1e-15, 0.7, 1.0});
  const UniformDistribution bottom(0.0, 4.0);
  const WaitScan scan(near_tie, 2.0, 1.0);
  const ReferenceDecision want = ReferenceOptimizeWait(bottom, 2, near_tie, 2.0, 1.0);
  EXPECT_EQ(want.wait, 1.0);
  EXPECT_EQ(want.best_q, 0.175);
  ExpectSameBits(scan.Optimize(bottom, 2), want, "near tie");
  EXPECT_EQ(CountSearch(scan, bottom, 2).fallbacks, 1);
}

TEST(WaitScanTest, NaNBottomsFallBackToWalk) {
  // A NaN fit makes q NaN from the first step on: the search stops at its
  // first NaN Phi and Walk answers as the reference does (wait 0).
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  const WaitScan scan(f.upper, f.deadline, f.epsilon);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const LogNormalDistribution log_normal(nan, 0.5);
  const NormalDistribution normal(nan, 1.0);
  for (const Distribution* bottom : {static_cast<const Distribution*>(&log_normal),
                                     static_cast<const Distribution*>(&normal)}) {
    for (int fanout : {1, 2, 50, 1000, 1 << 20}) {
      const std::string where = bottom->ToString() + " fanout " + std::to_string(fanout);
      ExpectSameBits(scan.Optimize(*bottom, fanout),
                     ReferenceOptimizeWait(*bottom, fanout, f.upper, f.deadline, f.epsilon),
                     where);
      EXPECT_EQ(CountSearch(scan, *bottom, fanout).fallbacks, 1) << where;
    }
  }
}

TEST(WaitScanTest, SearchProvesTheInteractiveShapeFromFewCdfEvaluations) {
  // The Figure 14 shape: a Facebook-ms bottom (and fits around it) under a
  // Google top, k = 50, D = 155 ms. The search must stay exact, never fall
  // back and evaluate Phi at no more than 80 of the 401 points per call;
  // a silent fall-back to the dense scan fails here.
  const double deadline = 155.0;
  const PiecewiseLinear upper =
      TabulateCdf(LogNormalDistribution(kGoogleMu, kGoogleSigma), deadline, 401);
  const WaitScan scan(upper, deadline, deadline / 400.0);
  ASSERT_EQ(scan.steps(), 400u);
  for (int i = 0; i < 16; ++i) {
    const std::string where = "fit " + std::to_string(i);
    const LogNormalDistribution fit(kFacebookMapMu + 0.02 * i,
                                    kFacebookMapSigma * (1.0 + 0.01 * i));
    ExpectSameBits(scan.Optimize(fit, 50),
                   ReferenceOptimizeWait(fit, 50, upper, deadline, deadline / 400.0), where);
    const SearchCount count = CountSearch(scan, fit, 50);
    EXPECT_EQ(count.steps, 400) << where;
    EXPECT_EQ(count.fallbacks, 0) << where;
    EXPECT_LE(count.cdf_evals, 80) << where;
  }
}

// The bound searches' grids and fits: random grids (1-step ones with
// deadline < epsilon among them), curves that reach 0, random fits of every
// family, saturating Phi, Phi == 0 and NaN fits, and the interactive fits
// (the fixture named "interactive fits").
std::vector<ScanFixture> BoundFixtures() {
  std::vector<ScanFixture> fixtures = RandomGrids();
  for (ScanFixture& f : CurvesThatReachZero()) {
    fixtures.push_back(std::move(f));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  fixtures.push_back({"saturation, zero cdf and nan fits",
                      TabulateCdf(UniformDistribution(0.0, 10.0), 100.0, 401), 100.0, 0.25,
                      {std::make_shared<UniformDistribution>(0.0, 50.0),
                       std::make_shared<UniformDistribution>(200.0, 300.0),
                       std::make_shared<LogNormalDistribution>(nan, 0.5),
                       std::make_shared<NormalDistribution>(nan, 1.0)}});
  ScanFixture interactive{"interactive fits",
                          TabulateCdf(LogNormalDistribution(kGoogleMu, kGoogleSigma), 155.0, 401),
                          155.0, 155.0 / 400.0, {}};
  for (int i = 0; i < 16; ++i) {
    interactive.bottoms.push_back(std::make_shared<LogNormalDistribution>(
        kFacebookMapMu + 0.02 * i, kFacebookMapSigma * (1.0 + 0.01 * i)));
  }
  fixtures.push_back(std::move(interactive));
  return fixtures;
}

// OptimizeOrBound is Optimize stopped early: over BoundFixtures, an exact
// answer is Optimize's bitwise, and a bound is later than |elapsed| and
// never later than Optimize's wait.
TEST(WaitScanTest, BoundNeverPassesTheWait) {
  Rng rng(29);
  int bounds = 0;
  int exact = 0;
  for (const ScanFixture& f : BoundFixtures()) {
    const WaitScan scan(f.upper, f.deadline, f.epsilon);
    for (const auto& bottom : f.bottoms) {
      for (int fanout : {1, 2, 50, 1000}) {
        const double wait = scan.Optimize(*bottom, fanout);
        for (double fraction : {0.0, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0, rng.NextDouble()}) {
          const double elapsed = fraction * f.deadline;
          const std::string where = f.name + ", " + bottom->ToString() + ", fanout " +
                                    std::to_string(fanout) + ", elapsed " +
                                    std::to_string(elapsed);
          const WaitScan::Bound bound = scan.OptimizeOrBound(*bottom, fanout, elapsed);
          if (bound.exact) {
            ++exact;
            EXPECT_EQ(std::bit_cast<uint64_t>(bound.wait), std::bit_cast<uint64_t>(wait))
                << where;
          } else {
            ++bounds;
            EXPECT_LE(bound.wait, wait) << where;
            EXPECT_GT(bound.wait, elapsed) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(bounds, 1000);
  EXPECT_GT(exact, 1000);
}

// A bound call runs a prefix of Optimize's search and stops before the
// round's halving, whose midpoints (or Walk) Optimize goes on to evaluate:
// over BoundFixtures every bound call evaluates Phi strictly less often than
// Optimize on the same fit and fanout. A search that halved before stopping
// makes as many evaluations as Optimize wherever that round was the last.
// The interactive fits early in the wait must stop at a bound. Each bound
// call counts once in wait_optimizer.bound_calls, with all its evaluations
// in wait_optimizer.bound_cdf_evals.
TEST(WaitScanTest, BoundCostsNoMoreThanTheExactSearch) {
  int bounds = 0;
  int early = 0;
  for (const ScanFixture& f : BoundFixtures()) {
    const WaitScan scan(f.upper, f.deadline, f.epsilon);
    const bool interactive = f.name == "interactive fits";
    for (const auto& bottom : f.bottoms) {
      for (int fanout : {1, 2, 50, 1000}) {
        const SearchCount full = CountSearch(scan, *bottom, fanout);
        for (double fraction : {0.0, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0}) {
          const double elapsed = fraction * f.deadline;
          const std::string where = f.name + ", " + bottom->ToString() + ", fanout " +
                                    std::to_string(fanout) + ", elapsed " +
                                    std::to_string(elapsed);
          const SearchCount count = CountSearch(scan, *bottom, fanout, elapsed);
          if (count.exact) {
            EXPECT_EQ(count.bound_calls, 0) << where;
            EXPECT_EQ(count.bound_cdf_evals, 0) << where;
            continue;
          }
          ++bounds;
          EXPECT_EQ(count.bound_calls, 1) << where;
          EXPECT_EQ(count.bound_cdf_evals, count.cdf_evals) << where;
          EXPECT_LT(count.cdf_evals, full.cdf_evals) << where;
          if (interactive && fraction <= 0.05) {
            ++early;
          }
        }
      }
    }
  }
  EXPECT_GT(bounds, 1000);
  EXPECT_EQ(early, 16 * 4 * 3);  // fits x fanouts x fractions <= 0.05
}

TEST(WaitScanTest, EmptyGridWithoutBudget) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  for (double deadline : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN()}) {
    WaitScan scan(f.upper, deadline, f.epsilon);
    EXPECT_EQ(scan.steps(), 0u);
    ExpectSameBits(scan.Optimize(*f.tree.stage(0).duration, 30),
                   ReferenceOptimizeWait(*f.tree.stage(0).duration, 30, f.upper, deadline,
                                         f.epsilon),
                   "deadline " + std::to_string(deadline));
  }
}

TEST(WaitScanTest, DefaultGridHasFourHundredSteps) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  EXPECT_EQ(WaitScan(f.upper, f.deadline, f.deadline / 400.0).steps(), 400u);
}

TEST(WaitScanDeathTest, RejectsCurvesOutsideTheUnitInterval) {
  // The early exit's bound assumes 0 <= q_{n-1} <= 1, as every q-curve is.
  const auto above = PiecewiseLinear::FromUniform(0.0, 10.0, {0.0, 1.5});
  EXPECT_DEATH(WaitScan(above, 10.0, 1.0), "outside \\[0, 1\\]");
  const auto below = PiecewiseLinear::FromUniform(0.0, 10.0, {-0.5, 1.0});
  EXPECT_DEATH(WaitScan(below, 10.0, 1.0), "outside \\[0, 1\\]");
}

TEST(WaitScanDeathTest, CapsTheStepCount) {
  // Before the cap, a deadline this far past epsilon spun until c + eps == c.
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  EXPECT_DEATH(WaitScan(f.upper, 1e20, 1.0), "scan steps");
  EXPECT_DEATH(OptimizeWait(*f.tree.stage(0).duration, 1, f.upper, 1e20, 1.0), "scan steps");
  EXPECT_DEATH(WaitScan(f.upper, std::numeric_limits<double>::infinity(), 1.0), "scan steps");
  EXPECT_DEATH(WaitScan(f.upper, 1.0, 1e-300), "scan steps");
}

TEST(OptimizeWaitTest, WaitWithinBudget) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  const double wait =
      OptimizeWait(*f.tree.stage(0).duration, 30, f.upper, f.deadline, f.epsilon);
  EXPECT_GE(wait, 0.0);
  EXPECT_LE(wait, f.deadline);
}

TEST(OptimizeWaitTest, ZeroOrNegativeDeadline) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  EXPECT_DOUBLE_EQ(OptimizeWait(*f.tree.stage(0).duration, 30, f.upper, 0.0, f.epsilon), 0.0);
  EXPECT_DOUBLE_EQ(OptimizeWait(*f.tree.stage(0).duration, 30, f.upper, -5.0, f.epsilon), 0.0);
}

TEST(OptimizeWaitTest, DominatesEveryScanPoint) {
  // The scan's running max by construction dominates every candidate c; the
  // property worth checking is that the maximum q_2(D) converges as the
  // grid refines: a finer scan never loses more than discretization error.
  TwoLevelFixture f(3.0, 1.2, 2.5, 0.8, 40, 40, 100.0);
  QualityGridOptions fine;
  fine.steps = 1000;
  QualityGridOptions coarse;
  coarse.steps = 100;
  const double fine_q = MaxExpectedQuality(f.tree, f.deadline, fine);
  const double coarse_q = MaxExpectedQuality(f.tree, f.deadline, coarse);
  EXPECT_GE(fine_q, coarse_q - 5e-3);
  EXPECT_NEAR(fine_q, coarse_q, 0.03);
}

TEST(OptimizeWaitTest, SlackDeadlineWaitsGenerously) {
  // With a huge deadline relative to both stages, waiting long enough to
  // collect everything costs nothing: expected quality ~ 1.
  TwoLevelFixture f(2.0, 0.5, 2.0, 0.5, 20, 20, 1000.0);
  EXPECT_GT(MaxExpectedQuality(f.tree, f.deadline), 0.99);
  // The chosen wait covers virtually the whole X1 distribution.
  const double wait =
      OptimizeWait(*f.tree.stage(0).duration, 20, f.upper, f.deadline, f.epsilon);
  EXPECT_GT(f.tree.stage(0).duration->Cdf(wait), 0.99);
}

TEST(OptimizeWaitTest, TightDeadlineLeavesRoomForUpperStage) {
  // X2 is comparable to the deadline: the optimizer must reserve room.
  TwoLevelFixture f(2.0, 0.5, 3.0, 0.5, 20, 20, 30.0);
  EXPECT_LT(OptimizeWait(*f.tree.stage(0).duration, 20, f.upper, f.deadline, f.epsilon), 20.0)
      << "must leave budget for X2 (mean ~23)";
}

TEST(OptimizeWaitTest, HigherUpperVarianceShortensWait) {
  TwoLevelFixture low(3.0, 0.8, 2.5, 0.4, 30, 30, 60.0);
  TwoLevelFixture high(3.0, 0.8, 2.5, 1.2, 30, 30, 60.0);
  const double wl =
      OptimizeWait(*low.tree.stage(0).duration, 30, low.upper, low.deadline, low.epsilon);
  const double wh =
      OptimizeWait(*high.tree.stage(0).duration, 30, high.upper, high.deadline, high.epsilon);
  // Heavier upper tail raises the risk of missing the deadline; the optimal
  // wait should not increase.
  EXPECT_LE(wh, wl + low.epsilon);
}

TEST(PlanTreeTest, TwoLevelPlanMatchesDirectOptimization) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  TreePlan plan = PlanTree(f.tree, f.deadline);
  ASSERT_EQ(plan.absolute_waits.size(), 1u);
  EXPECT_NEAR(plan.absolute_waits[0],
              OptimizeWait(*f.tree.stage(0).duration, 30, f.upper, f.deadline, f.epsilon),
              f.epsilon + 1e-9);
  // q_2(D) against the plain scan's running max on the same grid.
  EXPECT_NEAR(MaxExpectedQuality(f.tree, f.deadline),
              ReferenceOptimizeWait(*f.tree.stage(0).duration, 30, f.upper, f.deadline, f.epsilon)
                  .best_q,
              0.02);
}

TEST(PlanTreeTest, ThreeLevelWaitsAscend) {
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<LogNormalDistribution>(2.0, 0.8), 20);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(2.2, 0.6), 10);
  stages.emplace_back(std::make_shared<LogNormalDistribution>(2.1, 0.5), 5);
  TreeSpec tree(std::move(stages));
  TreePlan plan = PlanTree(tree, 150.0);
  ASSERT_EQ(plan.absolute_waits.size(), 2u);
  EXPECT_GE(plan.absolute_waits[0], 0.0);
  EXPECT_GE(plan.absolute_waits[1], plan.absolute_waits[0]);
  EXPECT_LE(plan.absolute_waits[1], 150.0);
  EXPECT_GT(MaxExpectedQuality(tree, 150.0), 0.0);
}

TEST(PlanTreeTest, ExpectedQualityMonotoneInDeadline) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  double prev = 0.0;
  for (double deadline : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    double quality = MaxExpectedQuality(f.tree, deadline);
    EXPECT_GE(quality, prev - 1e-6) << "deadline=" << deadline;
    prev = quality;
  }
}

TEST(PlanTreeDeathTest, RejectsNonFiniteDeadline) {
  // An infinite deadline used to die in the wait scan's step-count check.
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  for (double deadline : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    EXPECT_DEATH(PlanTree(f.tree, deadline), "must be finite and > 0") << deadline;
  }
}

TEST(OptimizeWaitDeathTest, RejectsBadArguments) {
  TwoLevelFixture f(2.0, 0.9, 2.0, 0.6, 30, 30, 40.0);
  EXPECT_DEATH(OptimizeWait(*f.tree.stage(0).duration, 0, f.upper, 10.0, 0.1), "fanout");
  EXPECT_DEATH(OptimizeWait(*f.tree.stage(0).duration, 30, f.upper, 10.0, 0.0), "epsilon");
}

}  // namespace
}  // namespace cedar
