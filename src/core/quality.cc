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

// Computes max_{c in [0,d]} of the accumulated (gain - loss) scan for one
// remaining-deadline value |d|, given tabulated Phi_X1 values at multiples of
// |eps| and the upper-subtree quality curve: the GainLossScan kernel fed by
// the indexed grid c_j = eps * j (Pseudocode 2 without the argmax).
double ScanBestQuality(const std::vector<double>& cdf_at, const std::vector<double>& cdf_pow_at,
                       double eps, double d, const PiecewiseLinear& upper) {
  GainLossScan scan;
  size_t max_j = cdf_at.size() - 1;
  for (size_t j = 0; j < max_j; ++j) {
    double c = eps * static_cast<double>(j);
    if (c >= d) {
      break;
    }
    double c2 = std::min(c + eps, d);
    scan.Step(cdf_at[j], cdf_at[j + 1], cdf_pow_at[j], upper(d - c), upper(d - c2));
  }
  return Clamp(scan.best_q, 0.0, 1.0);
}

// One bottom stage (|dist|, |k|) folded under the already-built |upper|
// curve: the q_{j} <- q_{j+1} step, on the grid [0, max_d] with step h.
// Phi_X1 and Phi_X1^k are tabulated once at the scan points, shared by
// every grid point.
class StageFold {
 public:
  StageFold(const Distribution& dist, int k, const PiecewiseLinear& upper, double max_d,
            const QualityGridOptions& options)
      : upper_(upper),
        eps_(max_d * options.epsilon_fraction),
        h_(max_d / static_cast<double>(options.grid_points - 1)),
        grid_points_(options.grid_points) {
    CEDAR_CHECK_GT(eps_, 0.0);
    auto steps = static_cast<size_t>(std::ceil(max_d / eps_)) + 1;
    cdf_at_.resize(steps + 1);
    cdf_pow_at_.resize(steps + 1);
    const FanoutPower power(k);
    for (size_t j = 0; j <= steps; ++j) {
      double phi = dist.Cdf(eps_ * static_cast<double>(j));
      cdf_at_[j] = phi;
      cdf_pow_at_[j] = power(phi);
    }
  }

  // The folded curve's sample at grid point |gi| >= 1 (the sample at 0 is 0).
  double At(int gi) const {
    return ScanBestQuality(cdf_at_, cdf_pow_at_, eps_, h_ * static_cast<double>(gi), upper_);
  }

  // Wraps samples on this fold's grid as a curve.
  PiecewiseLinear Curve(std::vector<double> ys) const {
    return PiecewiseLinear::FromUniform(0.0, h_, std::move(ys));
  }

  int grid_points() const { return grid_points_; }
  double h() const { return h_; }

 private:
  const PiecewiseLinear& upper_;
  double eps_;
  double h_;
  int grid_points_;
  std::vector<double> cdf_at_;
  std::vector<double> cdf_pow_at_;
};

// The whole folded curve: every grid point.
PiecewiseLinear FoldStageUnder(const Distribution& dist, int k, const PiecewiseLinear& upper,
                               double max_d, const QualityGridOptions& options) {
  CEDAR_PROFILE_SCOPE("quality.fold_stage");
  StageFold fold(dist, k, upper, max_d, options);
  std::vector<double> ys(static_cast<size_t>(fold.grid_points()), 0.0);
  for (int gi = 1; gi < fold.grid_points(); ++gi) {
    ys[static_cast<size_t>(gi)] = fold.At(gi);
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
      TabulateCdf(*tree.stage(n - 1).duration, max_d, options.grid_points);
  for (int i = n - 2; i >= first_stage; --i) {
    stack[static_cast<size_t>(i)] =
        FoldStageUnder(*tree.stage(i).duration, tree.stage(i).fanout,
                       stack[static_cast<size_t>(i + 1)], max_d, options);
  }
  return stack;
}

}  // namespace

PiecewiseLinear BuildQualityCurve(const TreeSpec& tree, int first_stage, double max_d,
                                  const QualityGridOptions& options) {
  CEDAR_CHECK(first_stage >= 0 && first_stage < tree.num_stages());
  return std::move(BuildStackFrom(tree, first_stage, max_d, options)[static_cast<size_t>(
      first_stage)]);
}

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
    return TabulateCdf(*bottom.duration, max_d, options.grid_points)(x);
  }
  StageFold fold(*bottom.duration, bottom.fanout, upper_curves[1], max_d, options);
  // The samples PiecewiseLinear reads at x on the uniform grid starting at
  // 0: none at or below 0; the last one once floor(x / h) + 1 runs off the
  // grid; otherwise floor(x / h) and the next. Rounding may put x / h just
  // below grid_points - 1 at x = max_d, so both neighbours are folded.
  std::vector<double> ys(static_cast<size_t>(fold.grid_points()), 0.0);
  if (x > 0.0) {
    auto idx = static_cast<size_t>(x / fold.h());
    size_t last = ys.size() - 1;
    for (size_t gi : {std::min(idx, last), std::min(idx + 1, last)}) {
      if (gi > 0) {
        ys[gi] = fold.At(static_cast<int>(gi));
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
