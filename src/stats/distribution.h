// Probability distributions of stage durations.
//
// The Cedar algorithm only ever touches distributions through this interface
// (CDF for the quality recursion, quantile/sampling for workload generation,
// moments for the Proportional-split baseline), which is what makes the
// system agnostic to the cause of performance variation (§1 of the paper).
//
// Families implemented: log-normal (the best fit for all four production
// traces, §4.2.1), normal (Figure 17), exponential, Pareto (tail model
// discussed in §4.2.1), Weibull and uniform (fitting candidates), and an
// empirical distribution over a sample set (a step-CDF adversary for the
// wait search's tests). Trace replay carries stages as DistributionSpec;
// finite mixtures live in mixture.h.

#ifndef CEDAR_SRC_STATS_DISTRIBUTION_H_
#define CEDAR_SRC_STATS_DISTRIBUTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/stats/rng.h"

namespace cedar {

enum class DistributionFamily {
  kLogNormal,
  kNormal,
  kExponential,
  kPareto,
  kWeibull,
  kUniform,
  kEmpirical,
  kMixture,
};

// Human-readable family name ("lognormal", "normal", ...).
std::string DistributionFamilyName(DistributionFamily family);

// Inverse of DistributionFamilyName; fatal on unknown names.
DistributionFamily DistributionFamilyFromName(const std::string& name);

// Abstract duration distribution. Implementations are immutable and
// thread-compatible; Sample() mutates only the caller's Rng.
class Distribution {
 public:
  virtual ~Distribution() = default;

  virtual DistributionFamily family() const = 0;

  // P[X <= x].
  virtual double Cdf(double x) const = 0;

  // Cdf(x), bit for bit, given |log_x| == std::log(x) (any value when
  // x <= 0). For callers that evaluate one grid of x under many
  // distributions and tabulate the logs once (WaitScan); families whose Cdf
  // goes through log x override it to skip the log.
  virtual double CdfWithLog(double x, double /*log_x*/) const { return Cdf(x); }

  // Inverse CDF; p must be in (0, 1).
  virtual double Quantile(double p) const = 0;

  // One random draw.
  virtual double Sample(Rng& rng) const = 0;

  virtual double Mean() const = 0;
  virtual double StdDev() const = 0;

  // "lognormal(mu=2.77, sigma=0.84)" — used in logs and fitting reports.
  virtual std::string ToString() const = 0;
};

// Log-normal: ln X ~ N(mu, sigma^2).
class LogNormalDistribution final : public Distribution {
 public:
  LogNormalDistribution(double mu, double sigma);

  DistributionFamily family() const override { return DistributionFamily::kLogNormal; }
  double Cdf(double x) const override;
  double CdfWithLog(double x, double log_x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string ToString() const override;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

// Normal(mean, sd). Durations cannot be negative, so Sample() clamps at zero
// (Figure 17 uses sd twice the mean). For x >= 0 the clamped CDF equals the
// unclamped one, so the quality recursion stays exact.
class NormalDistribution final : public Distribution {
 public:
  NormalDistribution(double mean, double stddev);

  DistributionFamily family() const override { return DistributionFamily::kNormal; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override { return mean_; }
  double StdDev() const override { return stddev_; }
  std::string ToString() const override;

 private:
  double mean_;
  double stddev_;
};

// Exponential with rate lambda.
class ExponentialDistribution final : public Distribution {
 public:
  explicit ExponentialDistribution(double lambda);

  DistributionFamily family() const override { return DistributionFamily::kExponential; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override { return 1.0 / lambda_; }
  double StdDev() const override { return 1.0 / lambda_; }
  std::string ToString() const override;

 private:
  double lambda_;
};

// Pareto with scale xm > 0 and shape alpha > 0 (heavy tail; the model the
// paper cites for the extreme tail beyond p99.5).
class ParetoDistribution final : public Distribution {
 public:
  ParetoDistribution(double xm, double alpha);

  DistributionFamily family() const override { return DistributionFamily::kPareto; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override;    // infinite for alpha <= 1
  double StdDev() const override;  // infinite for alpha <= 2
  std::string ToString() const override;

 private:
  double xm_;
  double alpha_;
};

// Weibull with shape k and scale lambda.
class WeibullDistribution final : public Distribution {
 public:
  WeibullDistribution(double shape, double scale);

  DistributionFamily family() const override { return DistributionFamily::kWeibull; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string ToString() const override;

 private:
  double shape_;
  double scale_;
};

// Uniform on [a, b].
class UniformDistribution final : public Distribution {
 public:
  UniformDistribution(double a, double b);

  DistributionFamily family() const override { return DistributionFamily::kUniform; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override { return 0.5 * (a_ + b_); }
  double StdDev() const override;
  std::string ToString() const override;

 private:
  double a_;
  double b_;
};

// Distribution backed by observed samples. CDF is the ECDF,
// quantiles interpolate between closest ranks, and Sample() draws by smooth
// inverse-transform so repeated values do not create atoms.
class EmpiricalDistribution final : public Distribution {
 public:
  explicit EmpiricalDistribution(std::vector<double> samples);

  DistributionFamily family() const override { return DistributionFamily::kEmpirical; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string ToString() const override;

 private:
  std::vector<double> sorted_;
  double mean_;
  double stddev_;
};

// A value-type description of a two-parameter distribution, convertible to a
// Distribution object. Used by policies and trace generators to pass learned
// or calibrated parameters around without heap traffic.
struct DistributionSpec {
  DistributionFamily family = DistributionFamily::kLogNormal;
  // Meaning per family: lognormal (mu, sigma) | normal (mean, sd) |
  // exponential (lambda, unused) | pareto (xm, alpha) | weibull (shape,
  // scale) | uniform (a, b). kEmpirical and kMixture are not representable
  // here.
  double p1 = 0.0;
  double p2 = 1.0;

  std::string ToString() const;
};

// Instantiates the distribution described by |spec| (fatal for kEmpirical
// and kMixture).
std::unique_ptr<Distribution> MakeDistribution(const DistributionSpec& spec);

}  // namespace cedar

#endif  // CEDAR_SRC_STATS_DISTRIBUTION_H_
