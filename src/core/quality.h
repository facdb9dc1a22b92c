// The recursive maximum-quality function q_n (§4.3 of the paper).
//
// q_n(D, X1, k1, ..., Xn, kn) is the maximum expected response quality of an
// n-stage tree under deadline D, equal to the maximum probability that any
// one process output reaches the root when every aggregator picks its
// optimal wait. The base case is q_1(d) = Phi_{Xn}(d); each additional
// bottom stage is folded in by scanning candidate waits c in steps of eps,
// accumulating
//
//   gain(c) = (Phi_X1(c+eps) - Phi_X1(c)) * q_{n-1}(D - (c+eps))      (Eqn 3)
//   loss(c) = (Phi_X1(c) - Phi_X1(c)^k1)
//             * (q_{n-1}(D - c) - q_{n-1}(D - (c+eps)))               (Eqn 4)
//
// and taking the running maximum of the partial sums. Curves and scans share
// one grid of step eps, so the fold's sample at d = eps * g reads
// q_{n-1}(d - c_j) as the upper curve's own sample g - j. A full curve stack
// costs at most O(n * (D/eps)^2) and a single point of a fold O(D/eps).

#ifndef CEDAR_SRC_CORE_QUALITY_H_
#define CEDAR_SRC_CORE_QUALITY_H_

#include <cfloat>
#include <cstddef>
#include <vector>

#include "src/common/math_util.h"
#include "src/core/tree.h"

namespace cedar {

// Tuning for the quality/wait computations: the one grid of deadline D.
struct QualityGridOptions {
  // Steps over [0, D]. The scan step eps and the curve spacing are both
  // Epsilon(D) = D / steps. The paper notes eps just controls
  // discretization error; 400 keeps curves smooth while staying well inside
  // the "tens of milliseconds" compute budget reported in §5.2.
  int steps = 400;

  double Epsilon(double max_d) const { return max_d / static_cast<double>(steps); }
};

// The Eqn 3-4 scan kernel: the running partial sum q of gain - loss, its
// maximum, and the one loop that walks a grid through it. CalculateWait
// (WaitScan) and the quality-curve fold both call Walk; they differ only in
// where Phi_X1 comes from (a lazy CDF or a per-stage table).
struct GainLossScan {
  double q = 0.0;
  double best_q = 0.0;
  // The grid point the best wait ends at (0 until a step ties or beats 0).
  size_t best_point = 0;

  // Advances the candidate wait from c to c2. |phi| and |phi2| are
  // Phi_X1(c) and Phi_X1(c2), |phik| is phi^k1, and |upper_c| and
  // |upper_c2| are q_{n-1}(d - c) and q_{n-1}(d - c2). Returns true when q
  // ties or beats the best so far: ties pick the later wait, matching the
  // paper's ">= bestQ" update rule.
  bool Step(double phi, double phi2, double phik, double upper_c, double upper_c2) {
    double gain = (phi2 - phi) * upper_c2;               // Eqn 3
    double loss = (phi - phik) * (upper_c - upper_c2);  // Eqn 4
    q += gain - loss;
    if (q >= best_q) {
      best_q = q;
      return true;
    }
    return false;
  }

  // True when no later step can make q tie or beat best_q, so a scan may
  // stop without changing its answer. |phi| is Phi_X1 at the point just
  // reached, |upper_next| is q_{n-1} one point further on, and |headroom|
  // is twice the curve's rises from the point just reached onwards plus a
  // bound on q's accumulated rounding (Walk derives both; DESIGN.md §4 has
  // the proof). Strictly below best_q keeps the later-wait tie rule.
  bool Settled(double phi, double upper_next, double headroom) const {
    return q + (1.0 - phi) * upper_next + headroom < best_q;
  }

  // The one scan loop: walks grid points 0..|last| (last >= 1). Step j runs
  // from point j - 1 to point j, whose Phi_X1 and q_{n-1} carry into step
  // j + 1. For point j, |phi_at(j)| is Phi_X1(c_j), |pow_at(j, phi)| that
  // phi's Phi_X1^k1, |upper_at(j)| u_j = q_{n-1}(d - c_j) in [0, 1], and
  // |rises_at(j)| R_{j-1} = sum over i >= j - 1 of max(0, u_{i+1} - u_i).
  // Before step j, Settled's headroom is 2 R_{j-1} plus the rounding slack
  // 8 (1 + R_0) last DBL_EPSILON (DESIGN.md §4 derives it), so best_q and
  // best_point are bitwise the full scan's. Returns the steps run.
  template <typename PhiAt, typename PowAt, typename UpperAt, typename RisesAt>
  size_t Walk(size_t last, const PhiAt& phi_at, const PowAt& pow_at, const UpperAt& upper_at,
              const RisesAt& rises_at) {
    const double slack = 8.0 * (1.0 + rises_at(1)) * static_cast<double>(last) * DBL_EPSILON;
    double phi = phi_at(0);
    double upper_c = upper_at(0);
    size_t j = 1;
    for (; j <= last; ++j) {
      double upper_c2 = upper_at(j);
      if (Settled(phi, upper_c2, 2.0 * rises_at(j) + slack)) {
        break;  // no step from here on can tie best_q
      }
      double phi2 = phi_at(j);
      if (Step(phi, phi2, pow_at(j - 1, phi), upper_c, upper_c2)) {
        best_point = j;
      }
      phi = phi2;
      upper_c = upper_c2;
    }
    return j - 1;
  }
};

// The Phi^k1 that GainLossScan::Step's loss term reads, for one fanout k1:
// built once from k1 and called as power(phi). Both feeders of the kernel
// use it. For k1 >= 2 it squares and multiplies along the bits of k1, a
// product of k1 copies of phi with relative error at most
// gamma_{k1-1} = (k1-1)u / (1 - (k1-1)u), u = 2^-53. Below
// 2^(-56/(k1-1)) it returns 0: there phi^k1 < phi 2^-56, so
// fl(phi - phi^k1) == phi and the loss is unchanged, and above it every
// intermediate power stays >= phi^k1 >= phi 2^-56, clear of subnormals
// (DESIGN.md §4). For k1 == 1 it returns phi.
class FanoutPower {
 public:
  explicit FanoutPower(int k);

  double operator()(double phi) const {
    if (k_ == 1) {
      return phi;
    }
    if (phi < floor_) {
      return 0.0;
    }
    double result = (k_ & 1u) ? phi : 1.0;
    for (unsigned bits = k_ >> 1; bits != 0; bits >>= 1) {
      phi *= phi;
      if (bits & 1u) {
        result *= phi;
      }
    }
    return result;
  }

 private:
  unsigned k_;
  double floor_;
};

// Tabulates the CDF of |dist| on a uniform grid over [0, max_d]:
// the base-case curve q_1 (steps + 1 grid points).
PiecewiseLinear TabulateCdf(const Distribution& dist, double max_d, int grid_points);

// Builds the whole stack: result[i] is the curve for stages [i, n), mapping
// a remaining deadline d in [0, max_d] to the maximum expected quality of
// that subtree. Index 0 is the full tree; index n-1 is the topmost stage's
// CDF. All curves share the grid [0, max_d]. Only callers that read every
// curve need this; the engines and policies read [1, n) and use
// BuildUpperQualityCurves.
std::vector<PiecewiseLinear> BuildQualityCurveStack(const TreeSpec& tree, double max_d,
                                                    const QualityGridOptions& options = {});

// The curves an aggregator's wait reads: result[i] for i in [1, n) is the
// curve for stages [i, n), bitwise equal to BuildQualityCurveStack's, and
// result[0] stays empty (evaluating it is fatal). Skips the stage-0 fold, so
// for a two-level tree this is one TabulateCdf.
std::vector<PiecewiseLinear> BuildUpperQualityCurves(const TreeSpec& tree, double max_d,
                                                     const QualityGridOptions& options = {});

// q_n(x) of the whole tree for x in [0, max_d], given |upper_curves| from
// BuildUpperQualityCurves(tree, max_d, options). Bitwise equal to
// BuildQualityCurveStack(tree, max_d, options)[0](x), but folds stage 0 only
// at the (at most two) grid points the curve interpolates at x.
double FullTreeQualityAt(const TreeSpec& tree, const std::vector<PiecewiseLinear>& upper_curves,
                         double max_d, double x, const QualityGridOptions& options = {});

// One-shot evaluation: maximum expected quality of the whole tree at
// deadline D (q_n(D)).
double MaxExpectedQuality(const TreeSpec& tree, double deadline,
                          const QualityGridOptions& options = {});

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_QUALITY_H_
