// CalculateWait (Pseudocode 2): picks the wait duration that maximizes the
// expected quality contribution of one aggregator, by scanning candidate
// waits in steps of eps and balancing the gain (Eqn 3) against the loss
// (Eqn 4), given the quality curve q_{n-1} of the subtree above it.

#ifndef CEDAR_SRC_CORE_WAIT_OPTIMIZER_H_
#define CEDAR_SRC_CORE_WAIT_OPTIMIZER_H_

#include <vector>

#include "src/core/quality.h"
#include "src/core/tree.h"

namespace cedar {

struct WaitDecision {
  // Chosen wait duration, relative to this aggregator's start.
  double wait = 0.0;
  // Expected quality contribution at that wait (the running max of the
  // gain/loss scan).
  double expected_quality = 0.0;
};

// Scans c in [0, deadline] in steps of |epsilon| per Pseudocode 2. |bottom|
// is this aggregator's child-duration distribution (X1 from its viewpoint),
// |fanout| its child count, |upper_quality| the q-curve of everything above
// it (for a two-level tree: the tabulated CDF of X2), and |deadline| the
// remaining time budget. Ties pick the later wait, matching the paper's
// ">= bestQ" update rule.
WaitDecision OptimizeWait(const Distribution& bottom, int fanout,
                          const PiecewiseLinear& upper_quality, double deadline, double epsilon);

// A full static plan for a tree: the absolute send time of every aggregator
// tier, assuming tier i's children were dispatched at the planned send time
// of tier i-1 (tier 0 starts at 0).
struct TreePlan {
  // absolute_waits[i] is the absolute time at which tier-i aggregators send
  // their partial result upstream; size = num_aggregator_tiers().
  std::vector<double> absolute_waits;
  // q_n(D): the expected quality of the plan.
  double expected_quality = 0.0;
};

// Plans every tier of |tree| under end-to-end deadline |deadline|, building
// the quality-curve stack once. This is the "Ideal"/offline computation; the
// online policies re-run OptimizeWait for the bottom tier as arrivals come
// in.
TreePlan PlanTree(const TreeSpec& tree, double deadline, const QualityGridOptions& options = {});

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_WAIT_OPTIMIZER_H_
