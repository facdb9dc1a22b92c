#include "src/core/wait_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/logging.h"
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
    points_.push_back({c, log_c, upper_quality(deadline - c)});
  };
  // The accumulated grid of Pseudocode 2: c2 = min(c + eps, deadline) of one
  // step is the next step's c, or the deadline on the last step.
  for (double c = 0.0; c < deadline; c += epsilon) {
    add_point(c);
  }
  add_point(deadline);
}

WaitDecision WaitScan::Optimize(const Distribution& bottom, int fanout) const {
  CEDAR_PROFILE_SCOPE("wait_optimizer.optimize_wait");
  CEDAR_CHECK_GE(fanout, 1);
  WaitDecision decision;
  if (points_.empty()) {
    return decision;
  }
  GainLossScan scan;
  double best_wait = 0.0;
  double phi = bottom.CdfWithLog(points_[0].c, points_[0].log_c);
  double upper_c = points_[0].upper;
  for (size_t j = 1; j < points_.size(); ++j) {
    const Point& next = points_[j];
    double phi2 = bottom.CdfWithLog(next.c, next.log_c);
    if (scan.Step(phi, phi2, std::pow(phi, fanout), upper_c, next.upper)) {
      best_wait = next.c;
    }
    phi = phi2;
    upper_c = next.upper;
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
