#include "src/core/wait_optimizer.h"

#include <algorithm>
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
  // The curve fold's indexed grid: c_j = epsilon * j below the deadline,
  // then the deadline itself.
  for (size_t j = 0; epsilon * static_cast<double>(j) < deadline; ++j) {
    add_point(epsilon * static_cast<double>(j));
  }
  add_point(deadline);

  // Walk's R_{j-1}: point j carries the curve's rises from point j - 1 on
  // (all zero for a monotone curve).
  double rises = 0.0;
  for (size_t j = points_.size() - 1; j > 0; --j) {
    rises += std::max(0.0, points_[j].upper - points_[j - 1].upper);
    points_[j].rises = rises;
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
  size_t ran = scan.Walk(
      steps(),
      [&](size_t j) { return bottom.CdfWithLog(points_[j].c, points_[j].log_c); },
      [&](size_t, double phi) { return power(phi); },
      [this](size_t j) { return points_[j].upper; },
      [this](size_t j) { return points_[j].rises; });
  if (MetricsEnabled()) {
    static Counter& total = MetricsRegistry::Global().GetCounter("wait_optimizer.scan_steps");
    static Counter& run = MetricsRegistry::Global().GetCounter("wait_optimizer.scan_steps_run");
    total.Increment(static_cast<long long>(steps()));
    run.Increment(static_cast<long long>(ran));
  }
  decision.wait = points_[scan.best_point].c;
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

  double eps = options.Epsilon(deadline);
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
