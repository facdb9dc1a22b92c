#include "src/stats/fitting.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/stats/normal_math.h"

namespace cedar {
namespace {

// Ordinary least squares y = a + b x. Returns false if x has no spread.
bool LinearRegress(const std::vector<double>& x, const std::vector<double>& y, double* a,
                   double* b) {
  CEDAR_CHECK_EQ(x.size(), y.size());
  size_t n = x.size();
  if (n < 2) {
    return false;
  }
  double sx = 0.0;
  double sy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  double mx = sx / static_cast<double>(n);
  double my = sy / static_cast<double>(n);
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx <= 0.0) {
    return false;
  }
  *b = sxy / sxx;
  *a = my - *b * mx;
  return true;
}

// Regression through the origin: y = b x.
bool OriginRegress(const std::vector<double>& x, const std::vector<double>& y, double* b) {
  CEDAR_CHECK_EQ(x.size(), y.size());
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  if (sxx <= 0.0) {
    return false;
  }
  *b = sxy / sxx;
  return true;
}

std::optional<DistributionSpec> FitFamily(DistributionFamily family,
                                          const std::vector<PercentilePoint>& points) {
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(points.size());
  ys.reserve(points.size());
  DistributionSpec spec;
  spec.family = family;

  switch (family) {
    case DistributionFamily::kLogNormal: {
      // ln q = mu + sigma * Phi^-1(p)
      for (const auto& pt : points) {
        if (pt.value <= 0.0) {
          return std::nullopt;
        }
        xs.push_back(NormalQuantile(pt.p));
        ys.push_back(std::log(pt.value));
      }
      double mu;
      double sigma;
      if (!LinearRegress(xs, ys, &mu, &sigma) || sigma <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = mu;
      spec.p2 = sigma;
      return spec;
    }
    case DistributionFamily::kNormal: {
      // q = mean + sd * Phi^-1(p)
      for (const auto& pt : points) {
        xs.push_back(NormalQuantile(pt.p));
        ys.push_back(pt.value);
      }
      double mean;
      double sd;
      if (!LinearRegress(xs, ys, &mean, &sd) || sd <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = mean;
      spec.p2 = sd;
      return spec;
    }
    case DistributionFamily::kExponential: {
      // q = (1/lambda) * (-ln(1-p)); regression through the origin.
      for (const auto& pt : points) {
        if (pt.value < 0.0) {
          return std::nullopt;
        }
        xs.push_back(-std::log1p(-pt.p));
        ys.push_back(pt.value);
      }
      double inv_lambda;
      if (!OriginRegress(xs, ys, &inv_lambda) || inv_lambda <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = 1.0 / inv_lambda;
      spec.p2 = 0.0;
      return spec;
    }
    case DistributionFamily::kPareto: {
      // ln q = ln xm - (1/alpha) ln(1-p)
      for (const auto& pt : points) {
        if (pt.value <= 0.0) {
          return std::nullopt;
        }
        xs.push_back(-std::log1p(-pt.p));
        ys.push_back(std::log(pt.value));
      }
      double ln_xm;
      double inv_alpha;
      if (!LinearRegress(xs, ys, &ln_xm, &inv_alpha) || inv_alpha <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = std::exp(ln_xm);
      spec.p2 = 1.0 / inv_alpha;
      return spec;
    }
    case DistributionFamily::kWeibull: {
      // ln(-ln(1-p)) = shape * ln q - shape * ln scale
      for (const auto& pt : points) {
        if (pt.value <= 0.0) {
          return std::nullopt;
        }
        xs.push_back(std::log(pt.value));
        ys.push_back(std::log(-std::log1p(-pt.p)));
      }
      double intercept;
      double shape;
      if (!LinearRegress(xs, ys, &intercept, &shape) || shape <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = shape;
      spec.p2 = std::exp(-intercept / shape);
      return spec;
    }
    case DistributionFamily::kUniform: {
      // q = a + (b - a) p
      for (const auto& pt : points) {
        xs.push_back(pt.p);
        ys.push_back(pt.value);
      }
      double a;
      double range;
      if (!LinearRegress(xs, ys, &a, &range) || range <= 0.0) {
        return std::nullopt;
      }
      spec.p1 = a;
      spec.p2 = a + range;
      return spec;
    }
    case DistributionFamily::kEmpirical:
    case DistributionFamily::kMixture:
      return std::nullopt;
  }
  return std::nullopt;
}

// How well |spec| reproduces the percentile points.
DistributionFit EvaluateFit(const DistributionSpec& spec,
                            const std::vector<PercentilePoint>& points) {
  auto dist = MakeDistribution(spec);
  DistributionFit fit;
  fit.spec = spec;
  double ss = 0.0;
  double worst = 0.0;
  for (const auto& pt : points) {
    double predicted = dist->Quantile(pt.p);
    double denom = std::fabs(pt.value) > 0.0 ? std::fabs(pt.value) : 1.0;
    double rel = (predicted - pt.value) / denom;
    ss += rel * rel;
    worst = std::max(worst, std::fabs(rel));
  }
  fit.relative_rms_error = std::sqrt(ss / static_cast<double>(points.size()));
  fit.max_relative_error = worst;
  return fit;
}

}  // namespace

std::vector<DistributionFit> FitPercentiles(const std::vector<PercentilePoint>& points) {
  CEDAR_CHECK_GE(points.size(), 2u) << "need at least two percentile points";
  for (const auto& pt : points) {
    CEDAR_CHECK(pt.p > 0.0 && pt.p < 1.0) << "percentile out of (0,1): " << pt.p;
  }
  std::vector<DistributionFit> fits;
  for (DistributionFamily family :
       {DistributionFamily::kLogNormal, DistributionFamily::kNormal,
        DistributionFamily::kExponential, DistributionFamily::kPareto,
        DistributionFamily::kWeibull, DistributionFamily::kUniform}) {
    auto spec = FitFamily(family, points);
    if (spec.has_value()) {
      fits.push_back(EvaluateFit(*spec, points));
    }
  }
  std::sort(fits.begin(), fits.end(), [](const DistributionFit& a, const DistributionFit& b) {
    return a.relative_rms_error < b.relative_rms_error;
  });
  return fits;
}

std::vector<DistributionFit> FitSamples(std::vector<double> samples) {
  CEDAR_CHECK_GE(samples.size(), 2u);
  std::sort(samples.begin(), samples.end());
  std::vector<PercentilePoint> points;
  for (double p : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    points.push_back({p, QuantileOfSorted(samples, p)});
  }
  return FitPercentiles(points);
}

double KolmogorovSmirnovStatistic(std::vector<double> samples, const Distribution& dist) {
  CEDAR_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  double n = static_cast<double>(samples.size());
  double ks = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    double cdf = dist.Cdf(samples[i]);
    double ecdf_above = static_cast<double>(i + 1) / n;  // ECDF just right of x_i
    double ecdf_below = static_cast<double>(i) / n;      // ECDF just left of x_i
    ks = std::max({ks, std::fabs(ecdf_above - cdf), std::fabs(cdf - ecdf_below)});
  }
  return ks;
}

}  // namespace cedar
