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

PiecewiseLinear PiecewiseLinear::FromUniform(double x0, double step, std::vector<double> ys) {
  CEDAR_CHECK_GT(step, 0.0);
  CEDAR_CHECK(!ys.empty());
  PiecewiseLinear p;
  p.x0_ = x0;
  p.step_ = step;
  p.ys_ = std::move(ys);
  return p;
}

double PiecewiseLinear::min_x() const {
  CEDAR_CHECK(!ys_.empty());
  return x0_;
}

double PiecewiseLinear::max_x() const {
  CEDAR_CHECK(!ys_.empty());
  return x0_ + step_ * static_cast<double>(ys_.size() - 1);
}

double PiecewiseLinear::operator()(double x) const {
  CEDAR_CHECK(!ys_.empty()) << "evaluating empty PiecewiseLinear";
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
