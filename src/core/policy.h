// WaitPolicy: the decision interface every aggregator consults (Pseudocode 1
// hooks). A policy instance is owned by exactly one aggregator node; fresh
// instances are made with Clone() and per-query state is reset by
// BeginQuery().
//
// Decisions are expressed as an *absolute send time* measured from query
// start, which keeps multi-tier trees consistent: a tier-i aggregator's
// children were dispatched at the planned send time of tier i-1
// (ctx.start_offset), and the root enforces the global deadline D.

#ifndef CEDAR_SRC_CORE_POLICY_H_
#define CEDAR_SRC_CORE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/math_util.h"
#include "src/core/tree.h"

namespace cedar {

class WaitTableStore;

// True per-query stage distributions, available only to the Oracle/Ideal
// policy (and to metric code). stage_durations.size() == tree.num_stages().
struct QueryTruth {
  std::vector<std::shared_ptr<const Distribution>> stage_durations;

  // Monotone per-query identifier assigned by the experiment driver; lets
  // per-query caches (OraclePolicy's plan cache) distinguish queries whose
  // QueryTruth objects happen to reuse the same address. 0 means "unknown":
  // caches must then recompute every time.
  uint64_t sequence = 0;

  // Materializes a TreeSpec with these distributions and |base|'s fanouts.
  TreeSpec OverlayOn(const TreeSpec& base) const;
};

// One tier's offline-optimal absolute send time within one query:
// CalculateWait on the offline bottom distribution under the tier's upper
// curve and budget. Every aggregator of the tier shares those inputs, so the
// first policy that needs the value fills the memo and the rest read it.
struct OfflineWaitMemo {
  bool filled = false;
  double send_time = 0.0;
};

// Everything a policy may consult when deciding. The pointers reference
// simulation-owned storage that outlives the policy call.
struct AggregatorContext {
  // Aggregator tier: 0 aggregates process outputs (stage 0).
  int tier = 0;
  // End-to-end deadline D at the root.
  double deadline = 0.0;
  // Planned absolute time at which this aggregator's children were
  // dispatched (0 for tier 0).
  double start_offset = 0.0;
  // Number of children (k_{tier+1} in paper notation).
  int fanout = 0;
  // Offline/global tree spec: what the system learned from completed
  // queries. Never the current query's truth.
  const TreeSpec* offline_tree = nullptr;
  // Offline quality curve q of the stages above this tier, tabulated on
  // [0, D] (for a two-level tree at tier 0: the CDF of X2).
  const PiecewiseLinear* upper_quality = nullptr;
  // Scan step for CalculateWait.
  double epsilon = 0.0;
  // Experiment-scoped wait-table store, set by the driver when the run wants
  // a specific (usually test- or bench-local) store instead of the process
  // Global(). Null means Global().
  WaitTableStore* table_store = nullptr;
  // This tier's offline-wait memo, owned by the query tree that owns the
  // context and living exactly as long as it. Null (contexts built outside
  // a query tree) means "compute the offline wait directly".
  OfflineWaitMemo* offline_wait = nullptr;
};

class WaitPolicy {
 public:
  virtual ~WaitPolicy() = default;

  // Stable identifier used in tables ("cedar", "prop-split", ...).
  virtual std::string name() const = 0;

  virtual std::unique_ptr<WaitPolicy> Clone() const = 0;

  // Creates an independent replica for a concurrent experiment shard. Unlike
  // Clone() — whose instances may *share* mutable per-query caches so that
  // all aggregator nodes of one query reuse one plan — a forked replica must
  // share no mutable state with the source, so two worker threads can run
  // different queries through their forks without synchronizing. Policies
  // whose clones are already state-free inherit this default.
  virtual std::unique_ptr<WaitPolicy> ForkForWorker() const { return Clone(); }

  // Called once per query before any arrival. |truth| carries the current
  // query's true distributions and is null unless the experiment grants the
  // policy oracle knowledge.
  virtual void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth);

  // Non-virtual entry points used by the simulators; they keep the last
  // decision cached so subclasses that never reconsider only implement
  // InitialWait().

  // Absolute send time decided before any arrivals.
  double DecideInitialWait(const AggregatorContext& ctx);

  // Notification of one child output arriving at |arrival_time| (absolute);
  // |arrivals| holds all arrivals so far in ascending order, including this
  // one. Returns the (possibly updated) absolute send time.
  double DecideOnArrival(const AggregatorContext& ctx, double arrival_time,
                         const std::vector<double>& arrivals);

  double current_wait() const { return current_wait_; }

 protected:
  virtual double InitialWait(const AggregatorContext& ctx) = 0;

  // Default: keep the previous decision.
  virtual double OnArrival(const AggregatorContext& ctx, double arrival_time,
                           const std::vector<double>& arrivals);

  double current_wait_ = 0.0;
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_POLICY_H_
