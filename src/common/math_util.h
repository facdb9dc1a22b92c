// Shared numerical primitives: interpolation, adaptive quadrature, root
// finding, and combinatorial helpers. Everything here is deterministic and
// header-declared so tests can exercise it directly.

#ifndef CEDAR_SRC_COMMON_MATH_UTIL_H_
#define CEDAR_SRC_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace cedar {

// Linear interpolation between |a| and |b| at fraction |t| in [0, 1].
double Lerp(double a, double b, double t);

// Clamps |v| into [lo, hi].
double Clamp(double v, double lo, double hi);

// Natural log of the binomial coefficient C(n, k) via lgamma; exact enough
// for the order-statistic densities (n up to a few thousand). Thread-safe.
double LogBinomial(int n, int k);

// Adaptive Simpson quadrature of |f| over [a, b] to absolute tolerance |tol|.
// |max_depth| bounds recursion; the result error is typically far below tol.
double IntegrateAdaptiveSimpson(const std::function<double(double)>& f, double a, double b,
                                double tol = 1e-10, int max_depth = 24);

// Finds a root of |f| in [lo, hi] by bisection, assuming f(lo) and f(hi)
// bracket one (fatal otherwise). Stops when the interval is below |tol|.
double FindRootBisect(const std::function<double(double)>& f, double lo, double hi,
                      double tol = 1e-12, int max_iters = 200);

// A tabulated function y(x) on an ascending grid with linear interpolation
// and flat extrapolation beyond the ends. Used for the quality curves q_n.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  // |xs| must be strictly ascending and the same length as |ys|.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  // Builds from a uniform grid [x0, x0 + step*(n-1)].
  static PiecewiseLinear FromUniform(double x0, double step, std::vector<double> ys);

  double operator()(double x) const;

  bool empty() const { return ys_.empty(); }
  size_t size() const { return ys_.size(); }
  double min_x() const;
  double max_x() const;

  const std::vector<double>& ys() const { return ys_; }

 private:
  // Uniform-grid representation (used when built via FromUniform).
  bool uniform_ = false;
  double x0_ = 0.0;
  double step_ = 0.0;

  std::vector<double> xs_;  // empty when uniform_
  std::vector<double> ys_;
};

// Returns the p-quantile (p in [0,1]) of |sorted| using linear interpolation
// between closest ranks (type-7, the numpy/R default). |sorted| must be
// ascending and non-empty.
double QuantileOfSorted(const std::vector<double>& sorted, double p);

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_MATH_UTIL_H_
