#include "src/core/wait_optimizer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/logging.h"
#include "src/obs/profiler.h"

namespace cedar {

WaitDecision OptimizeWait(const Distribution& bottom, int fanout,
                          const PiecewiseLinear& upper_quality, double deadline, double epsilon) {
  CEDAR_PROFILE_SCOPE("wait_optimizer.optimize_wait");
  CEDAR_CHECK_GE(fanout, 1);
  CEDAR_CHECK_GT(epsilon, 0.0);
  WaitDecision decision;
  if (deadline <= 0.0) {
    return decision;  // no budget: send immediately, expect nothing
  }

  double q = 0.0;
  double best_q = 0.0;
  double best_wait = 0.0;
  for (double c = 0.0; c < deadline; c += epsilon) {
    double c2 = std::min(c + epsilon, deadline);
    double phi = bottom.Cdf(c);
    double phi2 = bottom.Cdf(c2);
    double phik = std::pow(phi, fanout);
    double gain = (phi2 - phi) * upper_quality(deadline - c2);                   // Eqn 3
    double loss = (phi - phik) * (upper_quality(deadline - c) - upper_quality(deadline - c2));
    q += gain - loss;                                                            // Eqn 4
    if (q >= best_q) {
      best_q = q;
      best_wait = c2;
    }
  }
  decision.wait = best_wait;
  decision.expected_quality = Clamp(best_q, 0.0, 1.0);
  return decision;
}

TreePlan PlanTree(const TreeSpec& tree, double deadline, const QualityGridOptions& options) {
  CEDAR_PROFILE_SCOPE("wait_optimizer.plan_tree");
  CEDAR_CHECK_GT(deadline, 0.0);
  TreePlan plan;
  auto stack = BuildQualityCurveStack(tree, deadline, options);
  plan.expected_quality = stack[0](deadline);

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
