#include "src/core/quality.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/obs/profiler.h"

namespace cedar {

FanoutPower::FanoutPower(int k)
    : k_(static_cast<unsigned>(k)), floor_(k > 1 ? std::exp2(-56.0 / (k - 1)) : 0.0) {
  CEDAR_CHECK_GE(k, 1);
}

PiecewiseLinear TabulateCdf(const Distribution& dist, double max_d, int grid_points) {
  CEDAR_CHECK_GE(grid_points, 2);
  CEDAR_CHECK_GT(max_d, 0.0);
  double h = max_d / static_cast<double>(grid_points - 1);
  std::vector<double> ys(static_cast<size_t>(grid_points));
  for (int i = 0; i < grid_points; ++i) {
    ys[static_cast<size_t>(i)] = dist.Cdf(h * static_cast<double>(i));
  }
  return PiecewiseLinear::FromUniform(0.0, h, std::move(ys));
}

namespace {

// One bottom stage (|dist|, |k|) folded under the already-built |upper|
// curve: the q_{j} <- q_{j+1} step, on the grid [0, max_d] with step h.
// Phi_X1, Phi_X1^k and the prefix sums of the upper curve's falls are
// tabulated once at the grid points, shared by every sample.
class StageFold {
 public:
  StageFold(const Distribution& dist, int k, const PiecewiseLinear& upper, double max_d,
            const QualityGridOptions& options)
      : upper_(upper.ys()), h_(options.Epsilon(max_d)) {
    CEDAR_CHECK_GT(h_, 0.0);
    CEDAR_CHECK_EQ(upper_.size(), static_cast<size_t>(options.steps) + 1)
        << "upper curve is not on the fold's grid";
    phi_.resize(upper_.size());
    phik_.resize(upper_.size());
    falls_.resize(upper_.size());
    const FanoutPower power(k);
    for (size_t j = 0; j < upper_.size(); ++j) {
      phi_[j] = dist.Cdf(h_ * static_cast<double>(j));
      phik_[j] = power(phi_[j]);
      if (j > 0) {
        falls_[j] = falls_[j - 1] + std::max(0.0, upper_[j - 1] - upper_[j]);
      }
    }
  }

  // The folded curve's sample at grid point |g| >= 1 (the sample at 0 is
  // 0): the scan over c_j = h j, j <= g, reading u_j as the upper sample
  // g - j, so the rises of u from point j on are falls_[g - j].
  double At(size_t g) const {
    GainLossScan scan;
    scan.Walk(
        g, [this](size_t j) { return phi_[j]; }, [this](size_t j, double) { return phik_[j]; },
        [this, g](size_t j) { return upper_[g - j]; },
        [this, g](size_t j) { return falls_[g + 1 - j]; });
    return Clamp(scan.best_q, 0.0, 1.0);
  }

  // Wraps samples on this fold's grid as a curve.
  PiecewiseLinear Curve(std::vector<double> ys) const {
    return PiecewiseLinear::FromUniform(0.0, h_, std::move(ys));
  }

  size_t samples() const { return upper_.size(); }
  double h() const { return h_; }

 private:
  const std::vector<double>& upper_;
  double h_;
  std::vector<double> phi_;
  std::vector<double> phik_;
  std::vector<double> falls_;  // sum over m < t of max(0, ys[m] - ys[m + 1])
};

// The whole folded curve: every grid point.
PiecewiseLinear FoldStageUnder(const Distribution& dist, int k, const PiecewiseLinear& upper,
                               double max_d, const QualityGridOptions& options) {
  CEDAR_PROFILE_SCOPE("quality.fold_stage");
  StageFold fold(dist, k, upper, max_d, options);
  std::vector<double> ys(fold.samples(), 0.0);
  for (size_t g = 1; g < ys.size(); ++g) {
    ys[g] = fold.At(g);
  }
  return fold.Curve(std::move(ys));
}

// The curves for stages [i, n) for every i >= first_stage, built top-down so
// each level folds under the one above; entries below first_stage stay
// empty. The only fold loop: every stack and curve builder goes through it.
std::vector<PiecewiseLinear> BuildStackFrom(const TreeSpec& tree, int first_stage, double max_d,
                                            const QualityGridOptions& options) {
  CEDAR_CHECK_GT(max_d, 0.0);
  int n = tree.num_stages();
  std::vector<PiecewiseLinear> stack(static_cast<size_t>(n));
  if (first_stage >= n) {
    return stack;
  }
  stack[static_cast<size_t>(n - 1)] =
      TabulateCdf(*tree.stage(n - 1).duration, max_d, options.steps + 1);
  for (int i = n - 2; i >= first_stage; --i) {
    stack[static_cast<size_t>(i)] =
        FoldStageUnder(*tree.stage(i).duration, tree.stage(i).fanout,
                       stack[static_cast<size_t>(i + 1)], max_d, options);
  }
  return stack;
}

}  // namespace

std::vector<PiecewiseLinear> BuildQualityCurveStack(const TreeSpec& tree, double max_d,
                                                    const QualityGridOptions& options) {
  return BuildStackFrom(tree, 0, max_d, options);
}

std::vector<PiecewiseLinear> BuildUpperQualityCurves(const TreeSpec& tree, double max_d,
                                                     const QualityGridOptions& options) {
  return BuildStackFrom(tree, 1, max_d, options);
}

double FullTreeQualityAt(const TreeSpec& tree, const std::vector<PiecewiseLinear>& upper_curves,
                         double max_d, double x, const QualityGridOptions& options) {
  CEDAR_CHECK_EQ(upper_curves.size(), static_cast<size_t>(tree.num_stages()));
  const StageSpec& bottom = tree.stage(0);
  if (tree.num_stages() == 1) {
    return TabulateCdf(*bottom.duration, max_d, options.steps + 1)(x);
  }
  StageFold fold(*bottom.duration, bottom.fanout, upper_curves[1], max_d, options);
  // The samples PiecewiseLinear reads at x on the uniform grid starting at
  // 0: none at or below 0; the last one once floor(x / h) + 1 runs off the
  // grid; otherwise floor(x / h) and the next. Rounding may put x / h just
  // below steps at x = max_d, so both neighbours are folded.
  std::vector<double> ys(fold.samples(), 0.0);
  if (x > 0.0) {
    auto idx = static_cast<size_t>(x / fold.h());
    size_t last = ys.size() - 1;
    for (size_t gi : {std::min(idx, last), std::min(idx + 1, last)}) {
      if (gi > 0) {
        ys[gi] = fold.At(gi);
      }
    }
  }
  return fold.Curve(std::move(ys))(x);
}

double MaxExpectedQuality(const TreeSpec& tree, double deadline,
                          const QualityGridOptions& options) {
  CEDAR_CHECK_GT(deadline, 0.0);
  return FullTreeQualityAt(tree, BuildUpperQualityCurves(tree, deadline, options), deadline,
                           deadline, options);
}

}  // namespace cedar
