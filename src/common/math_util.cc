#include "src/common/math_util.h"

#include <math.h>  // lgamma_r (POSIX, not declared by <cmath>)

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace cedar {

double Lerp(double a, double b, double t) { return a + (b - a) * t; }

double Clamp(double v, double lo, double hi) { return std::min(std::max(v, lo), hi); }

namespace {

// std::lgamma writes the global |signgam|, a data race when order-statistic
// tables fill on several threads; lgamma_r returns the same value and
// keeps the sign local.
double LogGamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

}  // namespace

double LogBinomial(int n, int k) {
  CEDAR_CHECK(k >= 0 && k <= n) << "LogBinomial(" << n << ", " << k << ")";
  return LogGamma(n + 1.0) - LogGamma(k + 1.0) - LogGamma(n - k + 1.0);
}

namespace {

double SimpsonRule(double a, double fa, double b, double fb, double fm) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double AdaptiveSimpsonRecurse(const std::function<double(double)>& f, double a, double fa,
                              double b, double fb, double m, double fm, double whole, double tol,
                              int depth) {
  double lm = 0.5 * (a + m);
  double rm = 0.5 * (m + b);
  double flm = f(lm);
  double frm = f(rm);
  double left = SimpsonRule(a, fa, m, fm, flm);
  double right = SimpsonRule(m, fm, b, fb, frm);
  double delta = left + right - whole;
  if (depth <= 0 || std::fabs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return AdaptiveSimpsonRecurse(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1) +
         AdaptiveSimpsonRecurse(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1);
}

}  // namespace

double IntegrateAdaptiveSimpson(const std::function<double(double)>& f, double a, double b,
                                double tol, int max_depth) {
  if (a == b) {
    return 0.0;
  }
  double fa = f(a);
  double fb = f(b);
  double m = 0.5 * (a + b);
  double fm = f(m);
  double whole = SimpsonRule(a, fa, b, fb, fm);
  return AdaptiveSimpsonRecurse(f, a, fa, b, fb, m, fm, whole, tol, max_depth);
}

double FindRootBisect(const std::function<double(double)>& f, double lo, double hi, double tol,
                      int max_iters) {
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) {
    return lo;
  }
  if (fhi == 0.0) {
    return hi;
  }
  CEDAR_CHECK(flo * fhi < 0.0) << "FindRootBisect: no sign change on [" << lo << ", " << hi
                               << "] (f=" << flo << ", " << fhi << ")";
  for (int i = 0; i < max_iters && hi - lo > tol; ++i) {
    double mid = 0.5 * (lo + hi);
    double fmid = f(mid);
    if (fmid == 0.0) {
      return mid;
    }
    if (flo * fmid < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  CEDAR_CHECK_EQ(xs_.size(), ys_.size());
  CEDAR_CHECK(!xs_.empty());
  for (size_t i = 1; i < xs_.size(); ++i) {
    CEDAR_CHECK_LT(xs_[i - 1], xs_[i]) << "PiecewiseLinear grid must be strictly ascending";
  }
}

PiecewiseLinear PiecewiseLinear::FromUniform(double x0, double step, std::vector<double> ys) {
  CEDAR_CHECK_GT(step, 0.0);
  CEDAR_CHECK(!ys.empty());
  PiecewiseLinear p;
  p.uniform_ = true;
  p.x0_ = x0;
  p.step_ = step;
  p.ys_ = std::move(ys);
  return p;
}

double PiecewiseLinear::min_x() const {
  CEDAR_CHECK(!ys_.empty());
  return uniform_ ? x0_ : xs_.front();
}

double PiecewiseLinear::max_x() const {
  CEDAR_CHECK(!ys_.empty());
  return uniform_ ? x0_ + step_ * static_cast<double>(ys_.size() - 1) : xs_.back();
}

double PiecewiseLinear::operator()(double x) const {
  CEDAR_CHECK(!ys_.empty()) << "evaluating empty PiecewiseLinear";
  if (uniform_) {
    if (x <= x0_) {
      return ys_.front();
    }
    double pos = (x - x0_) / step_;
    auto idx = static_cast<size_t>(pos);
    if (idx + 1 >= ys_.size()) {
      return ys_.back();
    }
    double frac = pos - static_cast<double>(idx);
    return Lerp(ys_[idx], ys_[idx + 1], frac);
  }
  if (x <= xs_.front()) {
    return ys_.front();
  }
  if (x >= xs_.back()) {
    return ys_.back();
  }
  auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  size_t hi = static_cast<size_t>(it - xs_.begin());
  size_t lo = hi - 1;
  double frac = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return Lerp(ys_[lo], ys_[hi], frac);
}

double QuantileOfSorted(const std::vector<double>& sorted, double p) {
  CEDAR_CHECK(!sorted.empty());
  CEDAR_CHECK(p >= 0.0 && p <= 1.0) << "quantile p out of range: " << p;
  if (sorted.size() == 1) {
    return sorted[0];
  }
  double pos = p * static_cast<double>(sorted.size() - 1);
  auto idx = static_cast<size_t>(pos);
  if (idx + 1 >= sorted.size()) {
    return sorted.back();
  }
  double frac = pos - static_cast<double>(idx);
  return Lerp(sorted[idx], sorted[idx + 1], frac);
}

}  // namespace cedar
