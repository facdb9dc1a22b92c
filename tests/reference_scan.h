// Test helper: the Eqn 3-4 scan written plainly, as the bit-identity
// reference for both of its feeders. It is unpruned and untabulated: every
// step evaluates Phi with Cdf and Phi^k with the given power. It walks the
// one indexed grid, c_j = epsilon * j below the deadline and then the
// deadline itself. The wait scan's form reads the upper curve at
// deadline - c_j; the curve fold's form reads the upper curve's own sample
// g - j.

#ifndef CEDAR_TESTS_REFERENCE_SCAN_H_
#define CEDAR_TESTS_REFERENCE_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/math_util.h"
#include "src/core/quality.h"
#include "src/core/tree.h"
#include "src/stats/distribution.h"

namespace cedar {

// The reference's answer: the chosen wait and the scan's running maximum,
// clamped to [0, 1] as a folded curve's samples are.
struct ReferenceDecision {
  double wait = 0.0;
  double best_q = 0.0;
};

// Pseudocode 2 on the indexed grid. |power| maps phi to phi^fanout, and
// |upper_at(j, c_j)| returns q_{n-1}(deadline - c_j).
template <typename Power, typename UpperAt>
ReferenceDecision ReferenceScan(const Distribution& bottom, const Power& power, double deadline,
                                double epsilon, const UpperAt& upper_at) {
  ReferenceDecision decision;
  double q = 0.0;
  double best_q = 0.0;
  for (size_t j = 0; epsilon * static_cast<double>(j) < deadline; ++j) {
    double c = epsilon * static_cast<double>(j);
    double c2 = std::min(epsilon * static_cast<double>(j + 1), deadline);
    double phi = bottom.Cdf(c);
    double phi2 = bottom.Cdf(c2);
    double gain = (phi2 - phi) * upper_at(j + 1, c2);                           // Eqn 3
    double loss = (phi - power(phi)) * (upper_at(j, c) - upper_at(j + 1, c2));  // Eqn 4
    q += gain - loss;
    if (q >= best_q) {
      best_q = q;
      decision.wait = c2;
    }
  }
  decision.best_q = Clamp(best_q, 0.0, 1.0);
  return decision;
}

// The wait scan's form: CalculateWait against |upper_quality| at the
// remaining |deadline|, with Phi^k from the kernel's FanoutPower.
inline ReferenceDecision ReferenceOptimizeWait(const Distribution& bottom, int fanout,
                                               const PiecewiseLinear& upper_quality,
                                               double deadline, double epsilon) {
  return ReferenceScan(bottom, FanoutPower(fanout), deadline, epsilon,
                       [&](size_t, double c) { return upper_quality(deadline - c); });
}

// The curve fold's form: BuildQualityCurveStack with every sample g of a
// folded stage scanned over c_j = h j, j <= g, reading the upper curve's
// sample g - j.
inline std::vector<PiecewiseLinear> ReferenceStack(const TreeSpec& tree, double max_d,
                                                   const QualityGridOptions& options = {}) {
  const int n = tree.num_stages();
  const double h = options.Epsilon(max_d);
  std::vector<PiecewiseLinear> stack(static_cast<size_t>(n));
  stack[static_cast<size_t>(n - 1)] =
      TabulateCdf(*tree.stage(n - 1).duration, max_d, options.steps + 1);
  for (int i = n - 2; i >= 0; --i) {
    const std::vector<double>& upper = stack[static_cast<size_t>(i + 1)].ys();
    const FanoutPower power(tree.stage(i).fanout);
    std::vector<double> ys(upper.size(), 0.0);
    for (size_t g = 1; g < ys.size(); ++g) {
      ys[g] = ReferenceScan(*tree.stage(i).duration, power, h * static_cast<double>(g), h,
                            [&](size_t j, double) { return upper[g - j]; })
                  .best_q;
    }
    stack[static_cast<size_t>(i)] = PiecewiseLinear::FromUniform(0.0, h, std::move(ys));
  }
  return stack;
}

}  // namespace cedar

#endif  // CEDAR_TESTS_REFERENCE_SCAN_H_
