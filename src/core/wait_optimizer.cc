#include "src/core/wait_optimizer.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace cedar {

WaitScan::WaitScan(const PiecewiseLinear& upper_quality, double deadline, double epsilon) {
  CEDAR_PROFILE_SCOPE("wait_optimizer.scan_build");
  CEDAR_CHECK_GT(epsilon, 0.0);
  if (!(deadline > 0.0)) {
    return;  // no budget: send immediately, expect nothing
  }
  double steps = std::ceil(deadline / epsilon);
  CEDAR_CHECK_LE(steps, kMaxSteps) << "scan steps for deadline " << deadline << ", epsilon "
                                   << epsilon;
  points_.reserve(static_cast<size_t>(steps) + 2);
  auto add_point = [&](double c) {
    double log_c = c > 0.0 ? std::log(c) : -std::numeric_limits<double>::infinity();
    double upper = upper_quality(deadline - c);
    CEDAR_CHECK(!(upper < 0.0 || upper > 1.0))
        << "upper quality " << upper << " at " << deadline - c << " is outside [0, 1]";
    points_.push_back({c, log_c, upper, 0.0});
  };
  // The accumulated grid of Pseudocode 2: c2 = min(c + eps, deadline) of one
  // step is the next step's c, or the deadline on the last step.
  for (double c = 0.0; c < deadline; c += epsilon) {
    add_point(c);
  }
  add_point(deadline);

  // Settled's headroom. With u_i = points_[i].upper, R_j is the sum over
  // i >= j of max(0, u_{i+1} - u_i), the curve's rises from point j on (all
  // zero for a monotone curve); point j + 1 carries 2 R_j, since Optimize
  // reads it before step j + 1.
  double rises = 0.0;
  for (size_t j = points_.size() - 1; j > 0; --j) {
    rises += std::max(0.0, points_[j].upper - points_[j - 1].upper);
    points_[j].headroom = 2.0 * rises;
  }
  // Rounding slack, so the bound holds for the computed q and not only the
  // exact sum. With 0 <= Phi^k <= Phi <= 1 and 0 <= u <= 1, |q| stays below
  // 2 + 2 R_0, so one step's five rounded differences and products and its
  // rounded sum drift q by under (4.5 + R_0) DBL_EPSILON. Summing R_j in
  // floating point can understate 2 R_j by 2 R_0 steps DBL_EPSILON, and the
  // bound's own four operations add under (6 + 8 R_0) DBL_EPSILON. For
  // steps >= 2 (with one step there is nothing later to skip) all of it is
  // below 8 (1 + R_0) steps DBL_EPSILON.
  double slack = 8.0 * (1.0 + rises) * static_cast<double>(points_.size() - 1) * DBL_EPSILON;
  for (Point& point : points_) {
    point.headroom += slack;
  }
}

WaitDecision WaitScan::Optimize(const Distribution& bottom, int fanout) const {
  CEDAR_PROFILE_SCOPE("wait_optimizer.optimize_wait");
  CEDAR_CHECK_GE(fanout, 1);
  WaitDecision decision;
  if (points_.empty()) {
    return decision;
  }
  const FanoutPower power(fanout);
  GainLossScan scan;
  double best_wait = 0.0;
  double phi = bottom.CdfWithLog(points_[0].c, points_[0].log_c);
  double upper_c = points_[0].upper;
  size_t j = 1;
  for (; j < points_.size(); ++j) {
    const Point& next = points_[j];
    if (scan.Settled(phi, next.upper, next.headroom)) {
      break;  // no step from here on can tie best_q
    }
    double phi2 = bottom.CdfWithLog(next.c, next.log_c);
    if (scan.Step(phi, phi2, power(phi), upper_c, next.upper)) {
      best_wait = next.c;
    }
    phi = phi2;
    upper_c = next.upper;
  }
  if (MetricsEnabled()) {
    static Counter& total = MetricsRegistry::Global().GetCounter("wait_optimizer.scan_steps");
    static Counter& run = MetricsRegistry::Global().GetCounter("wait_optimizer.scan_steps_run");
    total.Increment(static_cast<long long>(steps()));
    run.Increment(static_cast<long long>(j - 1));
  }
  decision.wait = best_wait;
  decision.expected_quality = Clamp(scan.best_q, 0.0, 1.0);
  return decision;
}

WaitDecision OptimizeWait(const Distribution& bottom, int fanout,
                          const PiecewiseLinear& upper_quality, double deadline, double epsilon) {
  return WaitScan(upper_quality, deadline, epsilon).Optimize(bottom, fanout);
}

TreePlan PlanTree(const TreeSpec& tree, double deadline, const QualityGridOptions& options) {
  CEDAR_PROFILE_SCOPE("wait_optimizer.plan_tree");
  CEDAR_CHECK_GT(deadline, 0.0);
  TreePlan plan;
  auto stack = BuildUpperQualityCurves(tree, deadline, options);
  plan.expected_quality = FullTreeQualityAt(tree, stack, deadline, deadline, options);

  double eps = deadline * options.epsilon_fraction;
  double offset = 0.0;
  int tiers = tree.num_aggregator_tiers();
  plan.absolute_waits.reserve(static_cast<size_t>(tiers));
  for (int tier = 0; tier < tiers; ++tier) {
    double remaining = std::max(0.0, deadline - offset);
    WaitDecision decision =
        OptimizeWait(*tree.stage(tier).duration, tree.stage(tier).fanout,
                     stack[static_cast<size_t>(tier + 1)], remaining, eps);
    offset += decision.wait;
    plan.absolute_waits.push_back(offset);
  }
  return plan;
}

}  // namespace cedar
