// Shared numerical primitives: interpolation, root finding, and
// combinatorial helpers. Everything here is deterministic and
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

// Finds a root of |f| in [lo, hi] by bisection, assuming f(lo) and f(hi)
// bracket one (fatal otherwise). Stops when the interval is below |tol|.
double FindRootBisect(const std::function<double(double)>& f, double lo, double hi,
                      double tol = 1e-12, int max_iters = 200);

// A function y(x) tabulated on the uniform grid x0 + step * i, with linear
// interpolation and flat extrapolation beyond the ends. Used for the quality
// curves q_n, which all live on one grid of step eps (§4.3), so ys() alone
// with the grid's ends describes the curve exactly. Default-constructed
// curves are empty, and evaluating one is fatal.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  // Builds from samples |ys| (non-empty) at x0, x0 + step, ...,
  // x0 + step * (n - 1); |step| > 0.
  static PiecewiseLinear FromUniform(double x0, double step, std::vector<double> ys);

  double operator()(double x) const;

  double min_x() const;
  double max_x() const;

  const std::vector<double>& ys() const { return ys_; }

 private:
  double x0_ = 0.0;
  double step_ = 0.0;
  std::vector<double> ys_;
};

// Returns the p-quantile (p in [0,1]) of |sorted| using linear interpolation
// between closest ranks (type-7, the numpy/R default). |sorted| must be
// ascending and non-empty.
double QuantileOfSorted(const std::vector<double>& sorted, double p);

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_MATH_UTIL_H_
