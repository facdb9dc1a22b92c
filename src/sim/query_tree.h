// QueryTree: the aggregation tree of one query — Pseudocode 1 wired up at
// every aggregator — shared by the three execution engines (TreeSimulation,
// ClusterRuntime, RunLoadedCluster) and the two apps (SearchService,
// AnalyticsService).
//
// A QueryTree owns everything about a query that does not depend on how its
// leaf processes are scheduled:
//  * the upper quality curves its policies consult (the engine's offline
//    curves, or ones built from the query's true upper stages when the
//    knowledge model grants it); the full-tree curve is never built;
//  * the per-tier AggregatorContexts, with tier i's start offset planned by
//    a scratch policy clone as tier i-1's initial wait;
//  * the QueryMemo every context points at, so each tier's scan grid,
//    offline-optimal send time and wait table, and the Ideal plan, are
//    computed once per query, not once per aggregator (the scan grid and
//    send time once per model when upper knowledge is offline);
//  * one AggregatorNode per aggregator, each with its own policy clone;
//  * the upward send chain: a tier-t node's result ships with the sampled
//    stage-(t+1) duration of its own edge to parent index / fanout;
//  * root accounting against origin + deadline: the top-tier senders that
//    reached the root in time, in send order, and the tier-0 send mean.
// An engine supplies only the leaves' output times. RunFixedTimeLeaves()
// runs each aggregator's Pseudocode 1 from its sorted child arrivals, tier
// by tier, without an event heap, in the (time, seq) order one heap holding
// every timer, leaf and send would run them (DESIGN.md §4, "Aggregator
// loop"). The tier-0 order (LeafOrder) depends on no policy: an engine that
// runs several policies over one query sorts its leaves once and hands the
// same order to each policy's tree.
// TreeSimulation and the apps pass each leaf's sampled duration (origin 0);
// the cluster engines first run every leaf task on their slot scheduler
// (cluster_runtime.cc) and pass the winning completion times, absolute, with
// the query's arrival as |origin|. Aggregators hold no slots, so no wait
// decision feeds back into that scheduler. An app also carries each leaf's
// payload: it keeps the outputs the run accepted per tier-0 aggregator and
// merges those of root_senders() at the end.

#ifndef CEDAR_SRC_SIM_QUERY_TREE_H_
#define CEDAR_SRC_SIM_QUERY_TREE_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "src/core/policy.h"
#include "src/core/quality.h"
#include "src/core/tree.h"
#include "src/obs/query_trace.h"
#include "src/sim/aggregator_node.h"
#include "src/sim/realization.h"

namespace cedar {

// The options every engine shares (TreeSimulationOptions, ClusterRunOptions
// and LoadedRunConfig inherit them).
struct QueryTreeOptions {
  QualityGridOptions grid;

  // Knowledge model for the upper stages (X2..Xn). Aggregator-side
  // operations are standard functions whose duration distributions a
  // production system profiles offline per query class (§4.1 of the paper);
  // when true, the quality curves handed to optimizing policies
  // (ctx.upper_quality) are built from the query's true upper-stage
  // distributions, while the bottom stage X1 remains offline/global and
  // must be learned online. Proportional-split and the other straw-men
  // ignore the curves, so they keep using global means either way. Set to
  // false to model fully-stale upper knowledge.
  bool per_query_upper_knowledge = true;

  // Wait-table store handed to policies via ctx.table_store (borrowed, may
  // be null = policies use WaitTableStore::Global()). Lets a run pin table sharing to
  // an experiment-scoped store instead of the process Global().
  WaitTableStore* table_store = nullptr;
};

// What a query tree reports once it has run.
struct QueryResult {
  // Fraction of (weighted) process outputs included at the root.
  double quality = 0.0;

  // Weighted outputs included / total.
  double included_weight = 0.0;
  double total_weight = 0.0;

  // Top-tier results that reached the root in time / late.
  long long root_arrivals_in_time = 0;
  long long root_arrivals_late = 0;

  // Mean send time of tier-0 aggregators, relative to the query's start
  // (diagnostic: what wait the policy effectively chose).
  double mean_tier0_send_time = 0.0;

  // Events a discrete-event run of this query would schedule: its
  // aggregators' timers and re-arms, its leaves, and its sends' arrivals at
  // their parents, plus the cluster engines' slot-scheduler events (clones
  // and speculation polls).
  long long events = 0;
};

// What RunFixedTimeLeaves reports: the tree's result, with its events, and
// the time of the last event a queued run would fire.
struct FixedTimeRun {
  QueryResult result;
  double end_time = 0.0;
};

// A child output's arrival at its aggregator: a leaf's at tier 0, a child
// aggregator's send above.
struct ChildArrival {
  double time = 0.0;
  size_t child = 0;  // the leaf (tier 0) or child aggregator
};

// Every tier-0 aggregator's leaves in the order its Pseudocode 1 run takes
// them: block a holds leaves [a * fanout, (a + 1) * fanout) sorted by
// (time, leaf index). A leaf's event key is Pre(first leaf + index), so that
// is the queued run's order. Built once per leaf-time vector; any number of
// trees may run over it.
class LeafOrder {
 public:
  LeafOrder(const std::vector<double>& leaf_times, int fanout);

  size_t size() const { return leaves_.size(); }
  int fanout() const { return static_cast<int>(fanout_); }
  // Tier-0 aggregator |aggregator|'s leaves, sorted.
  std::span<const ChildArrival> block(size_t aggregator) const {
    return std::span<const ChildArrival>(leaves_).subspan(aggregator * fanout_, fanout_);
  }
  // The latest leaf time.
  double latest() const { return latest_; }

 private:
  size_t fanout_;
  std::vector<ChildArrival> leaves_;
  double latest_;
};

// The per-(offline tree, deadline) state every query tree of one engine
// shares: the offline quality curves, the scan step and the options, and,
// when upper knowledge is offline, each tier's scan grid and offline-optimal
// send time. Construct once, run many queries, from any number of threads.
class QueryTreeModel {
 public:
  QueryTreeModel(TreeSpec offline_tree, double deadline, const QueryTreeOptions& options);

  const TreeSpec& offline_tree() const { return offline_tree_; }
  double deadline() const { return deadline_; }
  double epsilon() const { return epsilon_; }
  const QueryTreeOptions& options() const { return options_; }
  // Offline q-curves from BuildUpperQualityCurves: [i] covers stages
  // [i, n) for i >= 1; [0] is empty.
  const std::vector<PiecewiseLinear>& curve_stack() const { return curve_stack_; }

  // The tier scans every query's memo shares when upper knowledge is
  // offline (each query's tiers then read curve_stack()); null under
  // per-query upper knowledge, where each query builds its own.
  ModelTierScans* tier_scans() const {
    return options_.per_query_upper_knowledge ? nullptr : &tier_scans_;
  }

 private:
  TreeSpec offline_tree_;
  double deadline_;
  QueryTreeOptions options_;
  double epsilon_;
  std::vector<PiecewiseLinear> curve_stack_;
  mutable ModelTierScans tier_scans_;
};

class QueryTree {
 public:
  // Plans the tiers and allocates every aggregator of |realization|'s query
  // under |policy_prototype| (cloned per aggregator). |model| and
  // |realization| are borrowed and must outlive the tree. The query traces
  // into ActiveTraceCollector() (not at all when it is null), and |engine|
  // names the engine in the trace.
  QueryTree(const QueryTreeModel& model, const WaitPolicy& policy_prototype,
            const QueryRealization& realization, const char* engine, double origin = 0.0);
  QueryTree(const QueryTree&) = delete;
  QueryTree& operator=(const QueryTree&) = delete;

  // Arms every aggregator's initial timer at the origin, bottom tier first:
  // what every engine pays per query before its first leaf. Runs once;
  // RunFixedTimeLeaves calls it.
  void Start();

  // Runs the whole query: Start(), then leaf i's output reaches its tier-0
  // aggregator at its time in |leaves|, an absolute time no earlier than
  // the origin. |accepted|, when set, is called with each leaf whose output its
  // aggregator took, in that aggregator's arrival order. Builds no queue.
  // Dies unless every aggregator sent exactly once, the quality is finite
  // and the included weight lies in [0, total weight] up to the rounding of
  // summing the same leaf weights in another order.
  FixedTimeRun RunFixedTimeLeaves(const LeafOrder& leaves,
                                  const std::function<void(long long)>& accepted = nullptr);
  // The same, leaf i's output at |leaf_times|[i].
  FixedTimeRun RunFixedTimeLeaves(const std::vector<double>& leaf_times,
                                  const std::function<void(long long)>& accepted = nullptr);

  double origin() const { return origin_; }

  // Indices of the top-tier aggregators whose results reached the root in
  // time, in send order.
  const std::vector<long long>& root_senders() const { return root_senders_; }

  // The query's trace builder, or null when tracing is off. The engine
  // calls Finish() on it with its own end time and diagnostics.
  QueryTraceBuilder* trace() { return trace_.active() ? &trace_ : nullptr; }

 private:
  double LeafWeight(size_t leaf) const;
  // When |node|'s send reaches its parent or the root.
  double ArrivalAbove(const AggregatorNode& node) const;
  bool InTime(double arrive_at) const { return arrive_at <= origin_ + model_.deadline(); }
  // The send's accounting, made in send order: the tier-0 send-time sum
  // and, for the top tier, the root's deadline check.
  void AccountSend(const AggregatorNode& node);
  void TraceRootArrival(double arrive_at);
  // Once every aggregator has sent.
  QueryResult Result() const;

  const QueryTreeModel& model_;
  const QueryRealization& realization_;
  double origin_;
  QueryTraceBuilder trace_;
  std::vector<PiecewiseLinear> query_stack_;  // per-query upper knowledge
  QueryMemo memo_;  // every contexts_[i].memo
  std::vector<AggregatorContext> contexts_;
  std::vector<std::vector<AggregatorNode>> nodes_;
  bool started_ = false;

  double included_weight_ = 0.0;
  std::vector<long long> root_senders_;
  long long root_late_ = 0;
  double tier0_send_sum_ = 0.0;
  long long tier0_sends_ = 0;
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_QUERY_TREE_H_
