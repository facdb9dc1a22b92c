// CalculateWait (Pseudocode 2): picks the wait duration that maximizes the
// expected quality contribution of one aggregator, by scanning candidate
// waits in steps of eps and balancing the gain (Eqn 3) against the loss
// (Eqn 4), given the quality curve q_{n-1} of the subtree above it. The
// scan grid is tabulated once (WaitScan) and reused across optimizations.

#ifndef CEDAR_SRC_CORE_WAIT_OPTIMIZER_H_
#define CEDAR_SRC_CORE_WAIT_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "src/core/quality.h"
#include "src/core/tree.h"

namespace cedar {

// The Pseudocode 2 scan grid of one aggregator: the candidate waits
// c_j = epsilon * j below the deadline, then the deadline itself (the
// curve fold's grid), each with the upper quality curve at the remaining
// budget, q_{n-1}(deadline - c_j), and log c_j. Everything here depends
// only on (upper curve, remaining deadline, epsilon), so one grid serves
// every re-optimization of an aggregator within a query (only the fitted
// bottom distribution changes) and every cell of a WaitTable. Immutable
// after construction: safe to share across threads.
class WaitScan {
 public:
  // Cap (2^24) on the scan's step count ceil(deadline / epsilon). The
  // defaults use 400 (QualityGridOptions::steps); the cap keeps a
  // mis-scaled epsilon from tabulating an unbounded grid.
  static constexpr double kMaxSteps = 1 << 24;

  // |upper_quality| is the q-curve of everything above the aggregator (for
  // a two-level tree: the tabulated CDF of X2) and is only read here; its
  // values must lie in [0, 1], as every q-curve's do. A non-positive or NaN
  // |deadline| gives an empty grid. Fatal if epsilon <= 0, the step count
  // exceeds kMaxSteps or a grid point's curve value is outside [0, 1].
  WaitScan(const PiecewiseLinear& upper_quality, double deadline, double epsilon);

  // CalculateWait for |bottom|, this aggregator's child-duration
  // distribution (X1 from its viewpoint), and |fanout| children: the wait
  // (relative to the aggregator's start) at which the Eqn 3-4 partial sum
  // peaks, ties picking the later wait. A bracketed search on the
  // telescoped sum proves the peak from Phi at a few dozen grid points; where
  // it cannot prove its answer beyond rounding (ties, Phi == 0 throughout,
  // NaN fits) it runs GainLossScan::Walk instead. Either way the wait is
  // bitwise the full scan's (DESIGN.md §4, "Bracketed wait search"). With
  // metrics on, adds the grid's steps to wait_optimizer.scan_steps, the CDF
  // evaluations to wait_optimizer.cdf_evals and each Walk fallback to
  // wait_optimizer.dense_fallbacks.
  double Optimize(const Distribution& bottom, int fanout) const;

  // Optimize's wait, or a lower bound on it (OptimizeOrBound).
  struct Bound {
    double wait = 0.0;
    bool exact = false;  // wait is Optimize's, bitwise
  };

  // Optimize, stopped as soon as the search proves the wait is later than
  // |elapsed| (relative to the aggregator's start): every grid point before
  // the earliest one the search has not excluded is then proven below
  // another by more than the margin that covers Walk, so that point, later
  // than |elapsed|, is returned as a lower bound (DESIGN.md §4, "Stopping at
  // a bound"). Otherwise returns Optimize's wait, exact. Counted as an
  // Optimize call by the profile site and the counters; a call that returns
  // a bound also adds 1 to wait_optimizer.bound_calls and its CDF
  // evaluations to wait_optimizer.bound_cdf_evals.
  Bound OptimizeOrBound(const Distribution& bottom, int fanout, double elapsed) const;

  // Number of scan steps (grid points minus one; 0 for an empty grid).
  size_t steps() const { return points_.empty() ? 0 : points_.size() - 1; }

 private:
  struct Point {
    double c;
    double log_c;
    double upper;  // q_{n-1}(deadline - c)
    double rises;  // GainLossScan::Walk's R_{j-1} at this point j
  };

  // One Optimize call's coarse-to-fine search over this grid.
  class BracketedSearch;

  std::vector<Point> points_;
};

// One-shot CalculateWait (Pseudocode 2): builds a WaitScan over
// (|upper_quality|, |deadline|, |epsilon|) and optimizes |bottom| with
// |fanout| children on it. Callers that re-optimize against the same grid
// should keep the WaitScan instead.
double OptimizeWait(const Distribution& bottom, int fanout, const PiecewiseLinear& upper_quality,
                    double deadline, double epsilon);

// A full static plan for a tree: the absolute send time of every aggregator
// tier, assuming tier i's children were dispatched at the planned send time
// of tier i-1 (tier 0 starts at 0).
struct TreePlan {
  // absolute_waits[i] is the absolute time at which tier-i aggregators send
  // their partial result upstream; size = num_aggregator_tiers().
  std::vector<double> absolute_waits;
};

// Plans every tier of |tree| under end-to-end deadline |deadline| (fatal
// unless finite and > 0), building the upper quality curves once. Its
// expected quality q_n(D) is MaxExpectedQuality(tree, deadline, options).
// This is the "Ideal"/offline computation; the online policies re-run the
// bottom tier's WaitScan as arrivals come in.
TreePlan PlanTree(const TreeSpec& tree, double deadline, const QualityGridOptions& options = {});

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_WAIT_OPTIMIZER_H_
