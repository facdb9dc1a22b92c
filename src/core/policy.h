// WaitPolicy: the decision interface every aggregator consults (Pseudocode 1
// hooks). A policy instance is owned by exactly one aggregator node; fresh
// instances are made with Clone() and per-query state is reset by
// BeginQuery(). State that all aggregators of a query share lives in the
// context's QueryMemo, never in the policy.
//
// Decisions are expressed as an *absolute send time* measured from query
// start, which keeps multi-tier trees consistent: a tier-i aggregator's
// children were dispatched at the planned send time of tier i-1
// (ctx.start_offset), and the root enforces the global deadline D.

#ifndef CEDAR_SRC_CORE_POLICY_H_
#define CEDAR_SRC_CORE_POLICY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/tree.h"
#include "src/core/wait_optimizer.h"

namespace cedar {

class WaitTable;
class WaitTableStore;

// True per-query stage distributions, available only to the Oracle/Ideal
// policy (and to metric code). stage_durations.size() == tree.num_stages().
struct QueryTruth {
  std::vector<std::shared_ptr<const Distribution>> stage_durations;

  // Monotone per-query identifier assigned by the experiment driver
  // (DriverQuerySequence). It keys the query's trace track and
  // ClusterRuntime's slot-placement and clone RNG streams. 0 means
  // "unassigned".
  uint64_t sequence = 0;

  // Materializes a TreeSpec with these distributions and |base|'s fanouts.
  TreeSpec OverlayOn(const TreeSpec& base) const;
};

struct AggregatorContext;

// A tier's scan grid and offline-optimal send time: the parts of Pseudocode
// 2 that depend only on the tier's upper curve, its budget (deadline minus
// start offset), epsilon, its fanout and the offline bottom stage, never on
// an arrival. Each is built on first use, from the asking context, by
// whichever caller asks first; once built it never changes, so callers on
// any thread may read it.
class TierScan {
 public:
  // The tier's WaitScan grid.
  const WaitScan& Scan(const AggregatorContext& ctx);

  // CalculateWait on the offline bottom distribution, as an absolute send
  // time.
  double OfflineSendTime(const AggregatorContext& ctx);

 private:
  std::once_flag scan_once_;
  std::optional<WaitScan> scan_;
  std::once_flag send_time_once_;
  double send_time_ = 0.0;
};

// The TierScans of a query tree model whose upper knowledge is offline
// (QueryTreeModel). Every query of such a model hands a tier the same upper
// curve, deadline, epsilon, fanout and offline bottom stage, so one TierScan
// is exact for every query whose tier starts at the same offset. Entries
// are keyed by (tier, start offset), added by the first query that asks and
// kept for the model's life: a policy that plans its offsets from the model
// alone, as the optimizing policies do, adds one per tier. Thread-safe.
class ModelTierScans {
 public:
  TierScan& Get(int tier, double start_offset);

 private:
  Mutex mutex_;
  std::map<std::pair<int, double>, std::unique_ptr<TierScan>> scans_ CEDAR_GUARDED_BY(mutex_);
};

// The state one query's aggregators share. Pseudocode 2 reads the upper
// curve q_{n-1}, the remaining budget and epsilon, which are the same for
// every aggregator of a tier; only the learned X1 differs. So, per tier, the
// first aggregator that needs one of these resolves it and the rest read it:
//  * scan: the tier's TierScan, i.e. its WaitScan grid and offline-optimal
//    send time. With a ModelTierScans it is the model's entry, shared with
//    every query of the model; without, the memo's own, built once per
//    query.
//  * table: the tier's WaitTable (one store get per tier; a get compares
//    the whole upper curve under the store's lock).
// For the whole query it holds the Ideal policy's TreePlan (one PlanTree
// per query).
//
// A memo serves one query of one policy prototype's clones: whoever owns the
// query's contexts owns it (QueryTree, RealtimeAggregator, a test) and
// drops it with them; a new query needs a fresh memo. Not thread-safe: a
// query's aggregators decide on one thread.
class QueryMemo {
 public:
  struct Tier {
    TierScan* scan = nullptr;  // resolved by ScanOf
    TierScan own_scan;         // used when the memo has no ModelTierScans
    std::shared_ptr<const WaitTable> table;
  };

  // |model_scans|, when set, serves every tier's TierScan; it is borrowed
  // and must outlive the memo.
  explicit QueryMemo(ModelTierScans* model_scans = nullptr) : model_scans_(model_scans) {}

  // The entry of aggregator tier |index|, added empty on first use. Adding
  // an entry leaves references to the others valid.
  Tier& tier(int index);

  // The TierScan of |ctx|'s tier, resolved on first use.
  TierScan& ScanOf(const AggregatorContext& ctx);

  std::optional<TreePlan>& plan() { return plan_; }

 private:
  ModelTierScans* model_scans_;
  std::deque<Tier> tiers_;
  std::optional<TreePlan> plan_;
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
  // The query's memo, owned by whoever owns this context. Every context
  // carries one: the policies that optimize (offline Cedar, Cedar, Ideal)
  // CHECK-fail without it.
  QueryMemo* memo = nullptr;
};

class WaitPolicy {
 public:
  virtual ~WaitPolicy() = default;

  // Stable identifier used in tables ("cedar", "prop-split", ...).
  virtual std::string name() const = 0;

  // A fresh instance with the same configuration. Clones share no mutable
  // state: what one query's aggregators share is in ctx.memo.
  virtual std::unique_ptr<WaitPolicy> Clone() const = 0;

  // Creates the replica a concurrent experiment shard runs its queries
  // through. It must share no mutable state with the source, so two worker
  // threads can run different queries through their forks without
  // synchronizing. Every policy's clone qualifies, so this is Clone(). It
  // is virtual only because perfbench's TimedPolicy decorator overrides it
  // to fork its inner policy; it goes when that decorator wraps
  // inner->Clone() instead, with the next change to perfbench.
  virtual std::unique_ptr<WaitPolicy> ForkForWorker() const { return Clone(); }

  // Called once per query before any arrival. |truth| carries the current
  // query's true distributions and is null unless the experiment grants the
  // policy oracle knowledge.
  virtual void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth);

  // Non-virtual entry points; they keep the last decision cached so
  // subclasses that never reconsider only implement InitialWait(). In the
  // library only AggregatorNode calls the deferrable pair; DecideOnArrival
  // serves decorators and tests.

  // Absolute send time decided before any arrivals.
  double DecideInitialWait(const AggregatorContext& ctx);

  // DecideOnArrivalDeferrable's answer.
  struct ArrivalDecision {
    // The absolute send time; while |deferred|, only a lower bound on it.
    double send_time = 0.0;
    // ResolveWait() gives the exact send time.
    bool deferred = false;
    // The policy kept its previous decision, deferred or not.
    bool kept = false;
  };

  // Notification of one child output arriving at |arrival_time| (absolute);
  // |arrivals| holds all arrivals so far in ascending order, including this
  // one. A policy that opts in (CedarPolicy) may return just a lower bound,
  // deferred: the caller calls ResolveWait() when its clock reaches the
  // bound, and a later decision replaces the deferred one.
  ArrivalDecision DecideOnArrivalDeferrable(const AggregatorContext& ctx, double arrival_time,
                                            const std::vector<double>& arrivals);

  // The exact absolute send time of the current decision. Resolves a
  // deferred decision once; fatal if the result is below the bound it was
  // deferred at.
  double ResolveWait(const AggregatorContext& ctx);

  // The eager decision: DecideOnArrivalDeferrable, then ResolveWait.
  double DecideOnArrival(const AggregatorContext& ctx, double arrival_time,
                         const std::vector<double>& arrivals);

 protected:
  virtual double InitialWait(const AggregatorContext& ctx) = 0;

  // Default: keep the previous decision. This hook and its |arrivals|
  // parameter stay only for perfbench's TimedPolicy decorator, which
  // forwards it to its inner policy's DecideOnArrival; they go when that
  // decorator forwards the deferrable pair, with the next change to
  // perfbench.
  virtual double OnArrival(const AggregatorContext& ctx, double arrival_time,
                           const std::vector<double>& arrivals);

  // The arrival hook. Default: OnArrival's send time, exact. A policy that
  // defers returns a lower bound with |deferred| set and implements Resolve().
  virtual ArrivalDecision OnArrivalDeferrable(const AggregatorContext& ctx, double arrival_time,
                                              const std::vector<double>& arrivals);

  // The exact send time of the deferred current decision. Only a policy
  // whose OnArrivalDeferrable defers is asked; the default is fatal.
  virtual double Resolve(const AggregatorContext& ctx);

  double current_wait_ = 0.0;
  bool deferred_ = false;  // current_wait_ is a lower bound
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_POLICY_H_
