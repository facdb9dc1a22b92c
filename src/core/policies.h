// Concrete wait policies.
//
//  * FixedWaitPolicy        — constant absolute wait (unit tests, ablations)
//  * EqualSplitPolicy       — deadline divided evenly across stages (§3 fn 3)
//  * ProportionalSplitPolicy— the paper's main baseline: deadline split in
//                             proportion to the offline stage means (§3)
//  * MeanSubtractPolicy     — deadline minus the mean of the upper stages
//                             (the other straw-man in §3 footnote 3)
//  * OfflineOptimalPolicy   — CalculateWait on the offline distributions; no
//                             online learning ("Cedar w/o online learning",
//                             Figure 11, and the Cosmos regime of Figure 15)
//  * CedarPolicy            — the full system: offline plan + per-query
//                             online order-statistics learning at the
//                             bottom tier, re-optimizing on arrivals
//  * OraclePolicy           — the "Ideal" scheme: knows the query's true
//                             distributions a priori, plans optimally
//
// All policies are deterministic given their inputs.

#ifndef CEDAR_SRC_CORE_POLICIES_H_
#define CEDAR_SRC_CORE_POLICIES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/online_learner.h"
#include "src/core/policy.h"
#include "src/core/wait_optimizer.h"
#include "src/core/wait_table.h"
#include "src/core/wait_table_store.h"

namespace cedar {

// Stateless between queries: Clone() shares nothing mutable, so a worker's
// fork is detached.
class FixedWaitPolicy final : public WaitPolicy {
 public:
  explicit FixedWaitPolicy(double absolute_wait);

  std::string name() const override { return "fixed"; }
  std::unique_ptr<WaitPolicy> Clone() const override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;

 private:
  double absolute_wait_;
};

// Stateless; a fork is detached (see FixedWaitPolicy).
class EqualSplitPolicy final : public WaitPolicy {
 public:
  std::string name() const override { return "equal-split"; }
  std::unique_ptr<WaitPolicy> Clone() const override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;
};

// Stateless; a fork is detached (see FixedWaitPolicy).
class ProportionalSplitPolicy final : public WaitPolicy {
 public:
  std::string name() const override { return "prop-split"; }
  std::unique_ptr<WaitPolicy> Clone() const override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;
};

// Stateless; a fork is detached (see FixedWaitPolicy).
class MeanSubtractPolicy final : public WaitPolicy {
 public:
  std::string name() const override { return "mean-subtract"; }
  std::unique_ptr<WaitPolicy> Clone() const override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;
};

// Stateless; a fork is detached (see FixedWaitPolicy).
class OfflineOptimalPolicy final : public WaitPolicy {
 public:
  std::string name() const override { return "cedar-offline"; }
  std::unique_ptr<WaitPolicy> Clone() const override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;
};

struct CedarPolicyOptions {
  OnlineLearnerOptions learner;

  // Re-run CalculateWait every n-th arrival once min_samples is reached
  // (1 = every arrival, as in Pseudocode 1).
  int reoptimize_every = 1;

  // §4.3.3 fast path: replace the per-arrival CalculateWait scan with a
  // bilinear lookup in a precomputed wait table over the learner's fitted
  // (location, scale) grid. The table is built once per upper-quality curve
  // and resolved once per (query, tier) into ctx.memo; out-of-grid fits
  // clamp to the table edge. table_spec.family must match learner.family.
  // Tables resolve through ctx.table_store, else WaitTableStore::Global().
  bool use_wait_table = false;
  WaitTableSpec table_spec;
};

// Per-query state is the learner's; the shared scan grid, offline send time
// and wait table live in ctx.memo, so a fork is detached. A scan decision
// stops at a lower bound once the search proves the wait is later than the
// arrival (WaitScan::OptimizeOrBound), and keeps the fit to finish the
// search in ResolveWait; table lookups are exact at once and never defer.
// An eager DecideOnArrival is that bound search, then the resolve.
class CedarPolicy final : public WaitPolicy {
 public:
  explicit CedarPolicy(CedarPolicyOptions options = {});

  std::string name() const override {
    return options_.learner.use_empirical_estimates ? "cedar-empirical" : "cedar";
  }
  std::unique_ptr<WaitPolicy> Clone() const override;
  void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) override;

  // Exposes the learner's current fit (tests and diagnostics).
  const OnlineLearner* learner() const { return learner_ ? &*learner_ : nullptr; }

 protected:
  double InitialWait(const AggregatorContext& ctx) override;
  // Pseudocode 1 on one arrival: the learner observes it, and the decision
  // is re-made (table lookup or wait scan) or kept. A scan may stop at a
  // lower bound, keeping its fit in deferred_fit_ for Resolve.
  ArrivalDecision OnArrivalDeferrable(const AggregatorContext& ctx, double arrival_time,
                                      const std::vector<double>& arrivals) override;
  double Resolve(const AggregatorContext& ctx) override;

 private:
  // Only this tier learns online; upper tiers use the offline optimum. The
  // paper learns the bottom stage per query and fits upper stages offline
  // (§4.1).
  static constexpr int kLearningTier = 0;

  CedarPolicyOptions options_;
  std::optional<OnlineLearner> learner_;  // set on the learning tier only
  int effective_min_samples_ = 2;
  int arrivals_since_reopt_ = 0;
  std::optional<LearnedDistribution> deferred_fit_;  // the fit of a deferred decision
};

// The Ideal scheme. The plan for the query's truth is computed once per
// query, into ctx.memo, and read by every aggregator; a fork is detached.
class OraclePolicy final : public WaitPolicy {
 public:
  std::string name() const override { return "ideal"; }
  std::unique_ptr<WaitPolicy> Clone() const override;
  void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;

 private:
  const QueryTruth* truth_ = nullptr;
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_POLICIES_H_
