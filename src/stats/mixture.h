// Finite mixture distribution: weighted components with exact CDF,
// quantile by bisection, and component-then-value sampling.
//
// Motivation: real per-job task-duration distributions are often bimodal —
// a main mode plus a straggler mode (§2.2's systemic contentions). The
// mixture lets workloads model that shape while Cedar's learner still fits
// a log-normal, exercising the model-mismatch robustness the paper claims
// (§4.2.1: the fit "does seem to falter near the extreme tail" without
// hurting the result).

#ifndef CEDAR_SRC_STATS_MIXTURE_H_
#define CEDAR_SRC_STATS_MIXTURE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/stats/distribution.h"

namespace cedar {

class MixtureDistribution final : public Distribution {
 public:
  struct Component {
    double weight = 0.0;
    std::shared_ptr<const Distribution> distribution;
  };

  // Weights must be positive; they are normalized to sum to 1.
  explicit MixtureDistribution(std::vector<Component> components);

  // Convenience: two-component mixture (1-straggler_fraction) * body +
  // straggler_fraction * straggler.
  static MixtureDistribution WithStragglerMode(std::shared_ptr<const Distribution> body,
                                               std::shared_ptr<const Distribution> straggler,
                                               double straggler_fraction);

  DistributionFamily family() const override { return DistributionFamily::kMixture; }
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Sample(Rng& rng) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string ToString() const override;

 private:
  std::vector<Component> components_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_STATS_MIXTURE_H_
