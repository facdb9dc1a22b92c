// Test helper: one randomly parameterized member of each of the seven
// Distribution families, for property tests that must hold for any family.

#ifndef CEDAR_TESTS_TEST_DISTRIBUTIONS_H_
#define CEDAR_TESTS_TEST_DISTRIBUTIONS_H_

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/stats/distribution.h"
#include "src/stats/rng.h"

namespace cedar {

// Log-normal, normal, exponential, Pareto, Weibull, uniform and empirical,
// in DistributionFamily order, with durations on the order of |scale|.
inline std::vector<std::shared_ptr<const Distribution>> OneOfEachFamily(Rng& rng,
                                                                        double scale) {
  // Draws are sequenced into locals: argument evaluation order is unspecified.
  auto draw = [&rng](double lo, double width) { return lo + width * rng.NextDouble(); };
  std::vector<std::shared_ptr<const Distribution>> out;
  double p1 = draw(0.05, 0.5);
  double p2 = draw(0.1, 1.5);
  out.push_back(std::make_shared<LogNormalDistribution>(std::log(scale * p1), p2));
  p1 = draw(0.1, 0.5);
  p2 = draw(0.05, 0.5);
  out.push_back(std::make_shared<NormalDistribution>(scale * p1, scale * p2));
  p1 = draw(0.05, 0.5);
  out.push_back(std::make_shared<ExponentialDistribution>(1.0 / (scale * p1)));
  p1 = draw(0.02, 0.2);
  p2 = draw(1.1, 3.0);
  out.push_back(std::make_shared<ParetoDistribution>(scale * p1, p2));
  p1 = draw(0.5, 2.0);
  p2 = draw(0.05, 0.5);
  out.push_back(std::make_shared<WeibullDistribution>(p1, scale * p2));
  p1 = draw(0.0, 0.3);
  p2 = draw(0.05, 0.6);
  out.push_back(std::make_shared<UniformDistribution>(scale * p1, scale * (p1 + p2)));
  p1 = draw(0.05, 0.5);
  p2 = draw(0.2, 1.0);
  LogNormalDistribution source(std::log(scale * p1), p2);
  std::vector<double> samples(64);
  for (double& sample : samples) {
    sample = source.Sample(rng);
  }
  out.push_back(std::make_shared<EmpiricalDistribution>(std::move(samples)));
  return out;
}

}  // namespace cedar

#endif  // CEDAR_TESTS_TEST_DISTRIBUTIONS_H_
