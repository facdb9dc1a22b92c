#include "src/core/wait_optimizer.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
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

// The bracketed search (DESIGN.md §4). Step j of GainLossScan::Step adds
// Phi_j u_j - Phi_{j-1} u_{j-1} + P_{j-1} (u_{j-1} - u_j), P = FanoutPower(Phi),
// so the partial sum telescopes to q_J = Phi_J u_J - Phi_0 u_0 + C_J with
// C_J = sum_{j <= J} P_{j-1} (u_{j-1} - u_j). The search evaluates Phi at a
// lattice of grid points (nodes). Between two nodes a < b, Phi and P lie
// within the endpoints' values (up to kPhiSlack), so C_b - C_a has bounds
// from the block's falls and rises of u, and so has every q_J inside; the
// block's first term reads P_a itself, so a one-step block is exact. Bounds
// are taken relative to a reference node r, summing only the blocks between
// r and a point, and blocks that may hold a point at least as good as r are
// halved until r is proven the argmax by more than the rounding margin.
class WaitScan::BracketedSearch {
 public:
  BracketedSearch(const WaitScan& scan, const Distribution& bottom, const FanoutPower& power,
                  int fanout)
      : points_(scan.points_.data()),
        last_(static_cast<uint32_t>(scan.steps())),
        bottom_(bottom),
        power_(power) {
    // The rounding margin (DESIGN.md §4): the Step loop's drift at both
    // points compared (Walk's slack each), plus the rounding of one bound,
    // once for every round a proof may be carried through.
    const double n = static_cast<double>(last_);
    const double r0 = points_[1].rises;
    const double walk_slack = 8.0 * (1.0 + r0) * n * DBL_EPSILON;
    const double bound_error =
        ((n + 14.0) * (1.0 + 2.0 * r0) + 2.0 * (n + 2.0) * (n + 2.0) * r0) * DBL_EPSILON;
    margin_ = 2.0 * walk_slack + (kMaxRounds + 2) * bound_error;
    // |FanoutPower(x) - FanoutPower(y)| <= k (x - y) + 2 gamma_{k-1} + 2^-56
    // for y <= x in [0, 1] (its rounding and its floor, quality.h).
    const double k = static_cast<double>(fanout);
    const double ku = (k - 1.0) * 0x1p-53;
    pk_slack_ = k * kPhiSlack + 2.0 * ku / (1.0 - ku) + 0x1p-56;
  }

  // What Run proved: the best grid point, or (|exact| false) a grid point
  // no later than the best one.
  struct Result {
    uint32_t j = 0;
    bool exact = false;
  };

  // The proven best grid point, or nullopt where only Walk can decide. Stops
  // at the first round in which the earliest grid point not yet proven below
  // the best lies later than |stop_after|, before that round's halving, and
  // returns that point as a bound.
  std::optional<Result> Run(double stop_after) {
    static thread_local std::vector<Node> pool_buffer;
    static thread_local std::vector<uint32_t> split_buffer;
    std::vector<Node>& pool = pool_buffer;
    std::vector<uint32_t>& to_split = split_buffer;
    pool.clear();
    // The lattice, linked in grid order.
    const uint32_t stride = std::max(1u, (last_ + kLatticeBlocks - 1) / kLatticeBlocks);
    for (uint32_t j = 0;; j = std::min(j + stride, last_)) {
      Node node;
      if (!Evaluate(j, &node) || (!pool.empty() && !Bracket(pool.back(), &node))) {
        return std::nullopt;
      }
      node.prev = pool.empty() ? kNone : static_cast<uint32_t>(pool.size() - 1);
      node.next = j == last_ ? kNone : static_cast<uint32_t>(pool.size() + 1);
      pool.push_back(node);
      if (j == last_) {
        break;
      }
    }
    // Each round bounds the window [first, last] of nodes from the
    // reference r and halves blocks; nodes and blocks left outside the
    // window are proven below a node no better than the final one. The
    // first round only picks the reference. Past half the grid the search
    // no longer pays, and Walk decides.
    const size_t max_nodes = std::min<size_t>(kMaxNodes, last_ / 2 + kLatticeBlocks + 1);
    uint32_t r = static_cast<uint32_t>(pool.size() - 1);
    uint32_t first = 0;
    uint32_t last = r;
    bool anchored = false;
    for (int round = 0; round < kMaxRounds; ++round) {
      // Sum the blocks outward from r into each node's C bounds, and find
      // the node proven furthest above r.
      const double base = pool[r].phiu;
      uint32_t best = r;
      double best_lo = base;  // best's Phi u + C - C_r
      pool[r].c_lo = 0.0;
      pool[r].c_hi = 0.0;
      for (uint32_t i = r; i != last;) {
        const Node& a = pool[i];
        Node& b = pool[a.next];
        b.c_lo = a.c_lo + b.c_step_lo;
        b.c_hi = a.c_hi + b.c_step_hi;
        if (b.phiu + b.c_lo > best_lo) {
          best_lo = b.phiu + b.c_lo;
          best = a.next;
        }
        i = a.next;
      }
      for (uint32_t i = r; i != first;) {
        const Node& b = pool[i];
        Node& a = pool[b.prev];
        a.c_lo = b.c_lo - b.c_step_hi;
        a.c_hi = b.c_hi - b.c_step_lo;
        if (a.phiu + a.c_lo > best_lo) {
          best_lo = a.phiu + a.c_lo;
          best = b.prev;
        }
        i = b.prev;
      }
      if (!anchored) {
        anchored = true;
        if (best != r) {
          r = best;
          continue;
        }
      }
      // Nodes not proven below the best by the margin span [left, right]
      // (grid indices); blocks whose inside may reach the best are halved,
      // and so is each inexact block inside the span. A node proven within
      // the margin of the best is a tie no halving can break (Phi saturating
      // to 1 or staying 0, u reaching 0): Walk decides.
      const double reach = best_lo - margin_;
      const double tie = pool[best].phiu + pool[best].c_hi - margin_;
      uint32_t left = pool[best].j;
      uint32_t right = left;
      to_split.clear();
      for (uint32_t i = first;;) {
        Node& b = pool[i];
        if (i != best && !(b.phiu + b.c_hi < reach)) {
          if (b.phiu + b.c_lo >= tie) {
            return std::nullopt;
          }
          left = std::min(left, b.j);
          right = std::max(right, b.j);
        }
        b.split = false;
        if (i != first && b.j - pool[b.prev].j >= 2 &&
            !(std::min(pool[b.prev].c_hi + b.inside_from_prev, b.c_hi + b.inside_from_this) <
              reach)) {
          b.split = true;
          to_split.push_back(i);
        }
        if (i == last) {
          break;
        }
        i = b.next;
      }
      if (left != right) {
        for (uint32_t i = first; i != last;) {
          i = pool[i].next;
          Node& b = pool[i];
          if (b.j > left && b.j <= right && !b.split && b.j - pool[b.prev].j >= 2 &&
              b.c_step_hi > b.c_step_lo) {
            b.split = true;
            to_split.push_back(i);
          }
        }
      }
      if (to_split.empty()) {
        if (best != r) {
          r = best;  // bound again from the best node before deciding
          continue;
        }
        if (left != right) {
          return std::nullopt;  // a tie within the margin
        }
        return Result{pool[r].j, true};
      }
      // Every grid point before |open|, the span's first node or a
      // to-be-halved block's first interior point, is now proven below a
      // node by more than the margin. That holds before any midpoint is
      // evaluated, so a bound past |stop_after| is returned here.
      uint32_t open = left;
      for (uint32_t i : to_split) {
        open = std::min(open, pool[pool[i].prev].j + 1);
      }
      if (points_[open].c > stop_after) {
        return Result{open, false};
      }
      if (pool.size() + to_split.size() > max_nodes) {
        return std::nullopt;
      }
      // Halve, and narrow the window to the best node, the span and the
      // halved blocks.
      first = best;
      last = best;
      for (uint32_t i : to_split) {
        const uint32_t a = pool[i].prev;
        Node mid;
        if (!Evaluate((pool[a].j + pool[i].j) / 2, &mid) || !Bracket(pool[a], &mid) ||
            !Bracket(mid, &pool[i])) {
          return std::nullopt;
        }
        mid.prev = a;
        mid.next = i;
        const auto m = static_cast<uint32_t>(pool.size());
        pool.push_back(mid);
        pool[a].next = m;
        pool[i].prev = m;
        if (pool[a].j < pool[first].j) {
          first = a;
        }
        if (pool[i].j > pool[last].j) {
          last = i;
        }
      }
      while (pool[first].j > left) {
        first = pool[first].prev;
      }
      while (pool[last].j < right) {
        last = pool[last].next;
      }
      r = best;
    }
    return std::nullopt;
  }

  long long cdf_evals() const { return cdf_evals_; }

 private:
  // The first lattice splits the grid into this many blocks. Fewer blocks
  // make lower bounds but cheaper bound calls; 4 measured best of 3, 4, 5,
  // 6 and 8 (DESIGN.md §4, "Lattice size").
  static constexpr uint32_t kLatticeBlocks = 4;
  // A cap on the nodes (and the scratch memory) of one search.
  static constexpr size_t kMaxNodes = 4096;
  static constexpr int kMaxRounds = 64;
  static constexpr uint32_t kNone = UINT32_MAX;
  // The search assumes the computed CDF never falls by more than this along
  // the grid: Phi_i <= Phi_j + kPhiSlack for i < j. A library erfc is
  // monotone only to within an ulp or so; 2^-46 is ~64 ulps of 1. Nodes
  // falling by more end the search.
  static constexpr double kPhiSlack = 0x1p-46;

  // An evaluated grid point j, with bounds on the block (prev, j] and, for
  // the round's reference r, on C_j - C_r. Filled by Evaluate and Bracket.
  struct Node {
    double phiu = 0.0;  // Phi_j u_j
    // C_j - C_prev lies in [c_step_lo, c_step_hi].
    double c_step_lo = 0.0;
    double c_step_hi = 0.0;
    // C_j - C_r lies in [c_lo, c_hi].
    double c_lo = 0.0;
    double c_hi = 0.0;
    // For every grid point J strictly inside the block, q_J - q_r is at
    // most min(c_hi(prev) + inside_from_prev, c_hi + inside_from_this)
    // - Phi_r u_r.
    double inside_from_prev = 0.0;
    double inside_from_this = 0.0;
    double phi = 0.0;  // Phi_j
    double pk = 0.0;   // P_j
    uint32_t j = 0;
    // Neighbours in grid order (kNone at the ends).
    uint32_t prev = kNone;
    uint32_t next = kNone;
    bool split = false;  // halve the block (prev, j] this round
  };

  // Fills |node| for grid point |j|; false unless Phi is in [0, 1].
  bool Evaluate(uint32_t j, Node* node) {
    const Point& point = points_[j];
    ++cdf_evals_;
    node->j = j;
    node->phi = bottom_.CdfWithLog(point.c, point.log_c);
    if (!(node->phi >= 0.0 && node->phi <= 1.0)) {
      return false;
    }
    node->pk = power_(node->phi);
    node->phiu = node->phi * point.upper;
    return true;
  }

  // Bounds the block (a, b] into |b|; false if Phi falls from a to b by
  // more than kPhiSlack.
  bool Bracket(const Node& a, Node* b) const {
    if (!(a.phi <= b->phi + kPhiSlack)) {
      return false;
    }
    const double u_next = points_[a.j + 1].upper;
    const double first = a.pk * (points_[a.j].upper - u_next);
    b->c_step_lo = first;
    b->c_step_hi = first;
    b->inside_from_prev = 0.0;
    b->inside_from_this = 0.0;
    if (b->j == a.j + 1) {
      return true;
    }
    // Steps a + 2 .. b read P at interior points, in [p_lo, p_hi]; their
    // rises and falls of u sum to |rises| and |falls|.
    const double u_b = points_[b->j].upper;
    const double rises =
        points_[a.j + 2].rises - (b->j < last_ ? points_[b->j + 1].rises : 0.0);
    const double falls = (u_next - u_b) + rises;
    const double p_lo = a.pk - pk_slack_;
    const double p_hi = b->pk + pk_slack_;
    const double phi_hi = b->phi + kPhiSlack;
    const double excess = std::max(0.0, p_hi - phi_hi);
    b->c_step_lo += p_lo * falls - p_hi * rises;
    b->c_step_hi += p_hi * falls - p_lo * rises;
    b->inside_from_prev = phi_hi * u_next + first + excess * falls + (phi_hi - p_lo) * rises;
    b->inside_from_this = phi_hi * u_b + (phi_hi - p_lo) * falls + excess * rises;
    return true;
  }

  const Point* points_;
  const uint32_t last_;
  const Distribution& bottom_;
  const FanoutPower& power_;
  double margin_ = 0.0;
  double pk_slack_ = 0.0;
  long long cdf_evals_ = 0;
};

double WaitScan::Optimize(const Distribution& bottom, int fanout) const {
  return OptimizeOrBound(bottom, fanout, std::numeric_limits<double>::infinity()).wait;
}

WaitScan::Bound WaitScan::OptimizeOrBound(const Distribution& bottom, int fanout,
                                          double elapsed) const {
  CEDAR_PROFILE_SCOPE("wait_optimizer.optimize_wait");
  CEDAR_CHECK_GE(fanout, 1);
  if (points_.empty()) {
    return {0.0, true};
  }
  const FanoutPower power(fanout);
  BracketedSearch search(*this, bottom, power, fanout);
  std::optional<BracketedSearch::Result> result = search.Run(elapsed);
  long long cdf_evals = search.cdf_evals();
  const bool fallback = !result.has_value();
  if (fallback) {
    GainLossScan scan;
    cdf_evals += 1 + static_cast<long long>(scan.Walk(
                         steps(),
                         [&](size_t j) { return bottom.CdfWithLog(points_[j].c, points_[j].log_c); },
                         [&](size_t, double phi) { return power(phi); },
                         [this](size_t j) { return points_[j].upper; },
                         [this](size_t j) { return points_[j].rises; }));
    result = BracketedSearch::Result{static_cast<uint32_t>(scan.best_point), true};
  }
  if (MetricsEnabled()) {
    static Counter& total = MetricsRegistry::Global().GetCounter("wait_optimizer.scan_steps");
    static Counter& evals = MetricsRegistry::Global().GetCounter("wait_optimizer.cdf_evals");
    static Counter& fallbacks =
        MetricsRegistry::Global().GetCounter("wait_optimizer.dense_fallbacks");
    static Counter& bound_calls =
        MetricsRegistry::Global().GetCounter("wait_optimizer.bound_calls");
    static Counter& bound_evals =
        MetricsRegistry::Global().GetCounter("wait_optimizer.bound_cdf_evals");
    total.Increment(static_cast<long long>(steps()));
    evals.Increment(cdf_evals);
    fallbacks.Increment(fallback ? 1 : 0);
    if (!result->exact) {
      bound_calls.Increment(1);
      bound_evals.Increment(cdf_evals);
    }
  }
  return {points_[result->j].c, result->exact};
}

double OptimizeWait(const Distribution& bottom, int fanout, const PiecewiseLinear& upper_quality,
                    double deadline, double epsilon) {
  return WaitScan(upper_quality, deadline, epsilon).Optimize(bottom, fanout);
}

TreePlan PlanTree(const TreeSpec& tree, double deadline, const QualityGridOptions& options) {
  CEDAR_PROFILE_SCOPE("wait_optimizer.plan_tree");
  CEDAR_CHECK(std::isfinite(deadline) && deadline > 0.0)
      << "deadline " << deadline << " must be finite and > 0";
  TreePlan plan;
  auto stack = BuildUpperQualityCurves(tree, deadline, options);

  double eps = options.Epsilon(deadline);
  double offset = 0.0;
  int tiers = tree.num_aggregator_tiers();
  plan.absolute_waits.reserve(static_cast<size_t>(tiers));
  for (int tier = 0; tier < tiers; ++tier) {
    double remaining = std::max(0.0, deadline - offset);
    offset += OptimizeWait(*tree.stage(tier).duration, tree.stage(tier).fanout,
                           stack[static_cast<size_t>(tier + 1)], remaining, eps);
    plan.absolute_waits.push_back(offset);
  }
  return plan;
}

}  // namespace cedar
