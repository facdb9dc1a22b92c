#include "src/stats/distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/stats/normal_math.h"

namespace cedar {

std::string DistributionFamilyName(DistributionFamily family) {
  switch (family) {
    case DistributionFamily::kLogNormal:
      return "lognormal";
    case DistributionFamily::kNormal:
      return "normal";
    case DistributionFamily::kExponential:
      return "exponential";
    case DistributionFamily::kPareto:
      return "pareto";
    case DistributionFamily::kWeibull:
      return "weibull";
    case DistributionFamily::kUniform:
      return "uniform";
    case DistributionFamily::kEmpirical:
      return "empirical";
    case DistributionFamily::kMixture:
      return "mixture";
  }
  return "unknown";
}

DistributionFamily DistributionFamilyFromName(const std::string& name) {
  for (DistributionFamily family :
       {DistributionFamily::kLogNormal, DistributionFamily::kNormal,
        DistributionFamily::kExponential, DistributionFamily::kPareto,
        DistributionFamily::kWeibull, DistributionFamily::kUniform,
        DistributionFamily::kEmpirical, DistributionFamily::kMixture}) {
    if (DistributionFamilyName(family) == name) {
      return family;
    }
  }
  CEDAR_LOG(FATAL) << "unknown distribution family: " << name;
  __builtin_unreachable();
}

namespace {

std::string FormatParams(const std::string& name, double p1, double p2, const char* n1,
                         const char* n2) {
  std::ostringstream s;
  s << name << "(" << n1 << "=" << p1 << ", " << n2 << "=" << p2 << ")";
  return s.str();
}

}  // namespace

// ---------------------------------------------------------------- LogNormal

LogNormalDistribution::LogNormalDistribution(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  CEDAR_CHECK_GT(sigma, 0.0) << "lognormal sigma must be positive";
}

double LogNormalDistribution::Cdf(double x) const {
  return x <= 0.0 ? 0.0 : CdfWithLog(x, std::log(x));
}

double LogNormalDistribution::CdfWithLog(double x, double log_x) const {
  if (x <= 0.0) {
    return 0.0;
  }
  return NormalCdf((log_x - mu_) / sigma_);
}

double LogNormalDistribution::Quantile(double p) const {
  return std::exp(mu_ + sigma_ * NormalQuantile(p));
}

double LogNormalDistribution::Sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.NextGaussian());
}

double LogNormalDistribution::Mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

double LogNormalDistribution::StdDev() const {
  return Mean() * std::sqrt(std::expm1(sigma_ * sigma_));
}

std::string LogNormalDistribution::ToString() const {
  return FormatParams("lognormal", mu_, sigma_, "mu", "sigma");
}

// ------------------------------------------------------------------- Normal

NormalDistribution::NormalDistribution(double mean, double stddev)
    : mean_(mean), stddev_(stddev) {
  CEDAR_CHECK_GT(stddev, 0.0) << "normal stddev must be positive";
}

double NormalDistribution::Cdf(double x) const { return NormalCdf((x - mean_) / stddev_); }

double NormalDistribution::Quantile(double p) const {
  return mean_ + stddev_ * NormalQuantile(p);
}

double NormalDistribution::Sample(Rng& rng) const {
  // Durations are nonnegative; clamp the (possibly negative) draw at zero.
  return std::max(0.0, mean_ + stddev_ * rng.NextGaussian());
}

std::string NormalDistribution::ToString() const {
  return FormatParams("normal", mean_, stddev_, "mean", "sd");
}

// -------------------------------------------------------------- Exponential

ExponentialDistribution::ExponentialDistribution(double lambda) : lambda_(lambda) {
  CEDAR_CHECK_GT(lambda, 0.0) << "exponential rate must be positive";
}

double ExponentialDistribution::Cdf(double x) const {
  if (x <= 0.0) {
    return 0.0;
  }
  return -std::expm1(-lambda_ * x);
}

double ExponentialDistribution::Quantile(double p) const {
  CEDAR_CHECK(p > 0.0 && p < 1.0);
  return -std::log1p(-p) / lambda_;
}

double ExponentialDistribution::Sample(Rng& rng) const {
  return -std::log(rng.NextOpenDouble()) / lambda_;
}

std::string ExponentialDistribution::ToString() const {
  std::ostringstream s;
  s << "exponential(lambda=" << lambda_ << ")";
  return s.str();
}

// ------------------------------------------------------------------- Pareto

ParetoDistribution::ParetoDistribution(double xm, double alpha) : xm_(xm), alpha_(alpha) {
  CEDAR_CHECK_GT(xm, 0.0);
  CEDAR_CHECK_GT(alpha, 0.0);
}

double ParetoDistribution::Cdf(double x) const {
  if (x <= xm_) {
    return 0.0;
  }
  return 1.0 - std::pow(xm_ / x, alpha_);
}

double ParetoDistribution::Quantile(double p) const {
  CEDAR_CHECK(p > 0.0 && p < 1.0);
  return xm_ * std::pow(1.0 - p, -1.0 / alpha_);
}

double ParetoDistribution::Sample(Rng& rng) const {
  return xm_ * std::pow(rng.NextOpenDouble(), -1.0 / alpha_);
}

double ParetoDistribution::Mean() const {
  if (alpha_ <= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return alpha_ * xm_ / (alpha_ - 1.0);
}

double ParetoDistribution::StdDev() const {
  if (alpha_ <= 2.0) {
    return std::numeric_limits<double>::infinity();
  }
  return xm_ / (alpha_ - 1.0) * std::sqrt(alpha_ / (alpha_ - 2.0));
}

std::string ParetoDistribution::ToString() const {
  return FormatParams("pareto", xm_, alpha_, "xm", "alpha");
}

// ------------------------------------------------------------------ Weibull

WeibullDistribution::WeibullDistribution(double shape, double scale)
    : shape_(shape), scale_(scale) {
  CEDAR_CHECK_GT(shape, 0.0);
  CEDAR_CHECK_GT(scale, 0.0);
}

double WeibullDistribution::Cdf(double x) const {
  if (x <= 0.0) {
    return 0.0;
  }
  return -std::expm1(-std::pow(x / scale_, shape_));
}

double WeibullDistribution::Quantile(double p) const {
  CEDAR_CHECK(p > 0.0 && p < 1.0);
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double WeibullDistribution::Sample(Rng& rng) const {
  return scale_ * std::pow(-std::log(rng.NextOpenDouble()), 1.0 / shape_);
}

double WeibullDistribution::Mean() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_);
}

double WeibullDistribution::StdDev() const {
  double g1 = std::tgamma(1.0 + 1.0 / shape_);
  double g2 = std::tgamma(1.0 + 2.0 / shape_);
  return scale_ * std::sqrt(std::max(0.0, g2 - g1 * g1));
}

std::string WeibullDistribution::ToString() const {
  return FormatParams("weibull", shape_, scale_, "shape", "scale");
}

// ------------------------------------------------------------------ Uniform

UniformDistribution::UniformDistribution(double a, double b) : a_(a), b_(b) {
  CEDAR_CHECK_LT(a, b) << "uniform requires a < b";
}

double UniformDistribution::Cdf(double x) const {
  return Clamp((x - a_) / (b_ - a_), 0.0, 1.0);
}

double UniformDistribution::Quantile(double p) const { return a_ + p * (b_ - a_); }

double UniformDistribution::Sample(Rng& rng) const { return a_ + rng.NextDouble() * (b_ - a_); }

double UniformDistribution::StdDev() const { return (b_ - a_) / std::sqrt(12.0); }

std::string UniformDistribution::ToString() const {
  return FormatParams("uniform", a_, b_, "a", "b");
}

// ---------------------------------------------------------------- Empirical

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  CEDAR_CHECK_GE(sorted_.size(), 2u) << "empirical distribution needs >= 2 samples";
  std::sort(sorted_.begin(), sorted_.end());
  double sum = 0.0;
  for (double v : sorted_) {
    sum += v;
  }
  mean_ = sum / static_cast<double>(sorted_.size());
  double ss = 0.0;
  for (double v : sorted_) {
    ss += (v - mean_) * (v - mean_);
  }
  stddev_ = std::sqrt(ss / static_cast<double>(sorted_.size() - 1));
}

double EmpiricalDistribution::Cdf(double x) const {
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::Quantile(double p) const { return QuantileOfSorted(sorted_, p); }

double EmpiricalDistribution::Sample(Rng& rng) const {
  return QuantileOfSorted(sorted_, rng.NextDouble());
}

double EmpiricalDistribution::Mean() const { return mean_; }

double EmpiricalDistribution::StdDev() const { return stddev_; }

std::string EmpiricalDistribution::ToString() const {
  std::ostringstream s;
  s << "empirical(n=" << sorted_.size() << ", mean=" << mean_ << ", sd=" << stddev_ << ")";
  return s.str();
}

// --------------------------------------------------------------------- Spec

std::string DistributionSpec::ToString() const {
  std::ostringstream s;
  s << DistributionFamilyName(family) << "(" << p1 << ", " << p2 << ")";
  return s.str();
}

std::unique_ptr<Distribution> MakeDistribution(const DistributionSpec& spec) {
  switch (spec.family) {
    case DistributionFamily::kLogNormal:
      return std::make_unique<LogNormalDistribution>(spec.p1, spec.p2);
    case DistributionFamily::kNormal:
      return std::make_unique<NormalDistribution>(spec.p1, spec.p2);
    case DistributionFamily::kExponential:
      return std::make_unique<ExponentialDistribution>(spec.p1);
    case DistributionFamily::kPareto:
      return std::make_unique<ParetoDistribution>(spec.p1, spec.p2);
    case DistributionFamily::kWeibull:
      return std::make_unique<WeibullDistribution>(spec.p1, spec.p2);
    case DistributionFamily::kUniform:
      return std::make_unique<UniformDistribution>(spec.p1, spec.p2);
    case DistributionFamily::kEmpirical:
    case DistributionFamily::kMixture:
      CEDAR_LOG(FATAL) << "DistributionSpec cannot describe family "
                       << DistributionFamilyName(spec.family);
  }
  return nullptr;
}

}  // namespace cedar
