#include "src/core/quality.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace cedar {

double ExpectedOutputsGivenNotAll(double phi, int k) {
  CEDAR_CHECK_GE(k, 1);
  CEDAR_CHECK(phi >= 0.0 && phi <= 1.0) << "phi out of [0,1]: " << phi;
  if (phi <= 0.0) {
    return 0.0;
  }
  double phik = std::pow(phi, k);
  double denom = 1.0 - phik;
  if (denom <= 0.0) {
    // phi == 1: conditioning event has probability zero; the limit of the
    // expression as phi -> 1 is k - 1 (all but the last have arrived).
    return static_cast<double>(k - 1);
  }
  return static_cast<double>(k) * (phi - phik) / denom;
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

// Folds one bottom stage (|dist|, |k|) under the already-built |upper|
// curve: the q_{j} <- q_{j+1} step, tabulated on the same grid.
PiecewiseLinear FoldStageUnder(const Distribution& dist, int k, const PiecewiseLinear& upper,
                               double max_d, const QualityGridOptions& options) {
  double eps = max_d * options.epsilon_fraction;
  CEDAR_CHECK_GT(eps, 0.0);

  // Pre-tabulate Phi_X1 and Phi_X1^k at scan points (shared across all d).
  auto steps = static_cast<size_t>(std::ceil(max_d / eps)) + 1;
  std::vector<double> cdf_at(steps + 1);
  std::vector<double> cdf_pow_at(steps + 1);
  for (size_t j = 0; j <= steps; ++j) {
    double phi = dist.Cdf(eps * static_cast<double>(j));
    cdf_at[j] = phi;
    cdf_pow_at[j] = std::pow(phi, k);
  }

  double h = max_d / static_cast<double>(options.grid_points - 1);
  std::vector<double> ys(static_cast<size_t>(options.grid_points), 0.0);
  for (int gi = 1; gi < options.grid_points; ++gi) {
    double d = h * static_cast<double>(gi);
    ys[static_cast<size_t>(gi)] = ScanBestQuality(cdf_at, cdf_pow_at, eps, d, upper);
  }
  return PiecewiseLinear::FromUniform(0.0, h, std::move(ys));
}

}  // namespace

PiecewiseLinear BuildQualityCurve(const TreeSpec& tree, int first_stage, double max_d,
                                  const QualityGridOptions& options) {
  CEDAR_CHECK(first_stage >= 0 && first_stage < tree.num_stages());
  CEDAR_CHECK_GT(max_d, 0.0);
  if (first_stage == tree.num_stages() - 1) {
    // Base case: q_1(d) = Phi_{Xn}(d).
    return TabulateCdf(*tree.stage(first_stage).duration, max_d, options.grid_points);
  }
  PiecewiseLinear upper = BuildQualityCurve(tree, first_stage + 1, max_d, options);
  return FoldStageUnder(*tree.stage(first_stage).duration, tree.stage(first_stage).fanout,
                        upper, max_d, options);
}

std::vector<PiecewiseLinear> BuildQualityCurveStack(const TreeSpec& tree, double max_d,
                                                    const QualityGridOptions& options) {
  std::vector<PiecewiseLinear> stack(static_cast<size_t>(tree.num_stages()));
  // Build top-down so each level reuses the one above instead of recursing.
  int n = tree.num_stages();
  stack[static_cast<size_t>(n - 1)] =
      TabulateCdf(*tree.stage(n - 1).duration, max_d, options.grid_points);
  for (int i = n - 2; i >= 0; --i) {
    stack[static_cast<size_t>(i)] =
        FoldStageUnder(*tree.stage(i).duration, tree.stage(i).fanout,
                       stack[static_cast<size_t>(i + 1)], max_d, options);
  }
  return stack;
}

double MaxExpectedQuality(const TreeSpec& tree, double deadline,
                          const QualityGridOptions& options) {
  CEDAR_CHECK_GT(deadline, 0.0);
  return BuildQualityCurve(tree, 0, deadline, options)(deadline);
}

}  // namespace cedar
