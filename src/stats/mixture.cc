#include "src/stats/mixture.h"

#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace cedar {

MixtureDistribution::MixtureDistribution(std::vector<Component> components)
    : components_(std::move(components)) {
  CEDAR_CHECK(!components_.empty()) << "mixture needs at least one component";
  double total = 0.0;
  for (const auto& component : components_) {
    CEDAR_CHECK(component.distribution != nullptr);
    CEDAR_CHECK_GT(component.weight, 0.0) << "component weights must be positive";
    total += component.weight;
  }
  for (auto& component : components_) {
    component.weight /= total;
  }
}

MixtureDistribution MixtureDistribution::WithStragglerMode(
    std::shared_ptr<const Distribution> body, std::shared_ptr<const Distribution> straggler,
    double straggler_fraction) {
  CEDAR_CHECK(straggler_fraction > 0.0 && straggler_fraction < 1.0)
      << "straggler fraction must be in (0,1): " << straggler_fraction;
  std::vector<Component> components;
  components.push_back({1.0 - straggler_fraction, std::move(body)});
  components.push_back({straggler_fraction, std::move(straggler)});
  return MixtureDistribution(std::move(components));
}

double MixtureDistribution::Cdf(double x) const {
  double cdf = 0.0;
  for (const auto& component : components_) {
    cdf += component.weight * component.distribution->Cdf(x);
  }
  return cdf;
}

double MixtureDistribution::Quantile(double p) const {
  CEDAR_CHECK(p > 0.0 && p < 1.0);
  // Bracket using the extreme component quantiles, then bisect the CDF.
  double lo = components_[0].distribution->Quantile(p);
  double hi = lo;
  for (const auto& component : components_) {
    double q = component.distribution->Quantile(p);
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  if (hi - lo < 1e-300) {
    return lo;
  }
  // Widen slightly: the mixture quantile lies within [min, max] of the
  // component quantiles, but guard against boundary round-off.
  double pad = 1e-9 * (std::fabs(hi) + 1.0);
  lo -= pad;
  hi += pad;
  return FindRootBisect([&](double x) { return Cdf(x) - p; }, lo, hi,
                        1e-12 * (std::fabs(hi) + 1.0));
}

double MixtureDistribution::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  double cumulative = 0.0;
  for (const auto& component : components_) {
    cumulative += component.weight;
    if (u < cumulative) {
      return component.distribution->Sample(rng);
    }
  }
  return components_.back().distribution->Sample(rng);
}

double MixtureDistribution::Mean() const {
  double mean = 0.0;
  for (const auto& component : components_) {
    mean += component.weight * component.distribution->Mean();
  }
  return mean;
}

double MixtureDistribution::StdDev() const {
  // Var = sum w_i (var_i + mean_i^2) - mean^2.
  double mean = Mean();
  double second_moment = 0.0;
  for (const auto& component : components_) {
    double m = component.distribution->Mean();
    double s = component.distribution->StdDev();
    second_moment += component.weight * (s * s + m * m);
  }
  return std::sqrt(std::max(0.0, second_moment - mean * mean));
}

std::string MixtureDistribution::ToString() const {
  std::ostringstream out;
  out << "mixture(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i != 0) {
      out << " + ";
    }
    out << components_[i].weight << "*" << components_[i].distribution->ToString();
  }
  out << ")";
  return out.str();
}

}  // namespace cedar
