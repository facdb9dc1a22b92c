// Concrete workloads modelling the paper's production traces (see
// calibration.h for constants and DESIGN.md for the substitution rationale).

#ifndef CEDAR_SRC_TRACE_WORKLOADS_H_
#define CEDAR_SRC_TRACE_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/workload.h"

namespace cedar {

// One stage of a meta-log-normal workload: per query, mu_q ~ N(mu,
// mu_spread^2) and sigma_q ~ N(sigma, sigma_spread^2) clamped to
// [min_sigma, inf); task durations within the query are i.i.d.
// LogNormal(mu_q, sigma_q). The offline/global view of the stage is the
// marginal fit LogNormal(mu, EffectiveMarginalSigma(...)).
struct MetaLogNormalStage {
  double mu = 0.0;
  double sigma = 1.0;
  double mu_spread = 0.0;
  double sigma_spread = 0.0;
  // Right-skew of the job-scale distribution: when > 1, an Exponential(rate)
  // shift is added to mu_q, modelling the production mix of many moderate
  // jobs plus a heavy tail of much larger ones. The tail inflates the
  // *global mean* the Proportional-split baseline divides the deadline by,
  // while leaving the median job unchanged — exactly the "single
  // distribution misses query-specific variation" failure of §3.2. Must be
  // > 1 for the marginal mean to exist; 0 disables the tail.
  double mu_tail_rate = 0.0;
  double min_sigma = 0.10;
  int fanout = 50;
};

// General per-query-varying log-normal workload; all the production
// workloads below are instances of it.
class MetaLogNormalWorkload : public Workload {
 public:
  MetaLogNormalWorkload(std::string name, std::string unit,
                        std::vector<MetaLogNormalStage> stages);

  std::string name() const override { return name_; }
  std::string time_unit() const override { return unit_; }
  TreeSpec OfflineTree() const override;
  QueryTruth DrawQuery(Rng& rng) const override;

  const std::vector<MetaLogNormalStage>& stages() const { return stages_; }

 private:
  std::string name_;
  std::string unit_;
  std::vector<MetaLogNormalStage> stages_;
};

// Facebook Hadoop replay: map stage (X1) + reduce stage (X2), seconds,
// strong per-query variation. The primary workload of §5.
MetaLogNormalWorkload MakeFacebookWorkload(int k1 = 50, int k2 = 50);

// Three-level Facebook tree (Figure 13): map bottom, reduce for both upper
// stages.
MetaLogNormalWorkload MakeFacebookThreeLevelWorkload(int k1 = 50, int k2 = 50, int k3 = 50);

// Interactive workload of §5.6 / Figure 14: Facebook map distribution
// re-expressed in milliseconds at the bottom, Google's distribution on top.
MetaLogNormalWorkload MakeInteractiveWorkload(int k1 = 50, int k2 = 50);

// Cosmos (Figure 15): stationary — only per-phase statistics exist, so
// every query shares the global distributions and online learning is
// "not in play".
StationaryWorkload MakeCosmosWorkload(int k1 = 50, int k2 = 50);

// Same-distribution-at-both-stages workloads for the Figure 16 sigma
// sweeps: X2 fixed at the trace's published fit; X1 shares mu but uses
// |sigma1| (the x-axis of Figure 16), with mild per-query mu jitter.
MetaLogNormalWorkload MakeBingSigmaWorkload(double sigma1, int k1 = 50, int k2 = 50);
MetaLogNormalWorkload MakeGoogleSigmaWorkload(double sigma1, int k1 = 50, int k2 = 50);
MetaLogNormalWorkload MakeFacebookSigmaWorkload(double sigma1, int k1 = 50, int k2 = 50);

// Gaussian workload of Figure 17: Normal(40, 80) bottom, Normal(40, 10)
// top, milliseconds, with mild per-query mean jitter at the bottom.
class GaussianWorkload final : public Workload {
 public:
  GaussianWorkload(int k1 = 50, int k2 = 50, double mean_spread = 6.0);

  std::string name() const override { return "gaussian"; }
  std::string time_unit() const override { return "ms"; }
  TreeSpec OfflineTree() const override;
  QueryTruth DrawQuery(Rng& rng) const override;

 private:
  int k1_;
  int k2_;
  double mean_spread_;
};

// Straggler workload: within each query, task durations are bimodal — a
// main body plus a straggler mode several times slower (the systemic
// contentions of §2.2). Cedar's learner still fits a log-normal, so this
// exercises robustness to distribution-type mismatch; the straggler mass
// sits beyond the useful wait range, which is why the paper argues the
// imperfect extreme-tail fit does not hurt (§4.2.1).
class StragglerWorkload final : public Workload {
 public:
  struct Options {
    double body_mu = 3.6;           // per-query body center (log scale)
    double body_sigma = 0.45;
    double mu_spread = 0.5;         // across-query location spread
    double straggler_fraction = 0.08;
    double straggler_slowdown = 8.0;  // straggler mode is this much slower
    double straggler_sigma = 0.7;
    int k1 = 50;
    int k2 = 50;
    // Upper stage: same reduce model as the Facebook workload.
    double upper_mu = 4.3;
    double upper_sigma = 0.95;
    double upper_mu_spread = 0.3;
  };

  StragglerWorkload() : StragglerWorkload(Options()) {}
  explicit StragglerWorkload(Options options);

  std::string name() const override { return "straggler-bimodal"; }
  std::string time_unit() const override { return "s"; }
  TreeSpec OfflineTree() const override;
  QueryTruth DrawQuery(Rng& rng) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

// Wraps another workload but reports a stale offline tree: the load-shift
// scenario of Figure 11, where the system's offline knowledge was learned
// before the load changed.
class MismatchedOfflineWorkload final : public Workload {
 public:
  MismatchedOfflineWorkload(std::shared_ptr<const Workload> actual, TreeSpec stale_offline_tree);

  std::string name() const override { return actual_->name() + "+stale-offline"; }
  std::string time_unit() const override { return actual_->time_unit(); }
  TreeSpec OfflineTree() const override { return stale_tree_; }
  QueryTruth DrawQuery(Rng& rng) const override { return actual_->DrawQuery(rng); }

 private:
  std::shared_ptr<const Workload> actual_;
  TreeSpec stale_tree_;
};

// Builds a workload by name for the CLI tools:
//   "facebook", "facebook-3level", "interactive", "cosmos", "gaussian",
//   "straggler", "bing-sigma:<s1>", "google-sigma:<s1>", "facebook-sigma:<s1>".
// Fatal on unknown names (listing the known ones).
std::unique_ptr<Workload> MakeWorkloadByName(const std::string& name, int k1 = 50, int k2 = 50);

// All constructible names (parameterized forms shown with a placeholder).
std::vector<std::string> KnownWorkloadNames();

}  // namespace cedar

#endif  // CEDAR_SRC_TRACE_WORKLOADS_H_
