#include "src/sim/query_tree.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace cedar {

QueryTreeModel::QueryTreeModel(TreeSpec offline_tree, double deadline,
                               const QueryTreeOptions& options)
    : offline_tree_(std::move(offline_tree)), deadline_(deadline), options_(options) {
  CEDAR_CHECK_GT(deadline, 0.0);
  CEDAR_CHECK_GE(offline_tree_.num_stages(), 2) << "a query tree needs >= 2 stages";
  epsilon_ = options_.grid.Epsilon(deadline_);
  curve_stack_ = BuildUpperQualityCurves(offline_tree_, deadline_, options_.grid);
}

LeafOrder::LeafOrder(const std::vector<double>& leaf_times, int fanout)
    : fanout_(static_cast<size_t>(fanout)),
      leaves_(leaf_times.size()),
      latest_(-kSimTimeInfinity) {
  CEDAR_CHECK(fanout >= 1 && leaf_times.size() % fanout_ == 0)
      << leaf_times.size() << " leaves do not fill tier-0 aggregators of fanout " << fanout;
  for (size_t leaf = 0; leaf < leaf_times.size(); ++leaf) {
    leaves_[leaf] = {leaf_times[leaf], leaf};
    latest_ = std::max(latest_, leaf_times[leaf]);
  }
  for (auto first = leaves_.begin(); first != leaves_.end();
       first += static_cast<std::ptrdiff_t>(fanout_)) {
    std::sort(first, first + static_cast<std::ptrdiff_t>(fanout_),
              [](const ChildArrival& a, const ChildArrival& b) {
                return a.time != b.time ? a.time < b.time : a.child < b.child;
              });
  }
}

QueryTree::QueryTree(const QueryTreeModel& model, const WaitPolicy& policy_prototype,
                     const QueryRealization& realization, const char* engine, double origin)
    : model_(model),
      realization_(realization),
      origin_(origin),
      trace_(ActiveTraceCollector(), realization.truth.sequence, policy_prototype.name(), engine,
             origin),
      memo_(model.tier_scans()) {
  const TreeSpec& tree = model_.offline_tree();
  const int tiers = tree.num_aggregator_tiers();
  CEDAR_CHECK_EQ(static_cast<int>(realization_.stage_durations.size()), tree.num_stages());
  QueryTraceBuilder* trace_ptr = trace();

  // Only the curves for stages >= 1 are consulted, so the bottom stage stays
  // offline/global under either knowledge model.
  const std::vector<PiecewiseLinear>* stack = &model_.curve_stack();
  if (model_.options().per_query_upper_knowledge) {
    query_stack_ = BuildUpperQualityCurves(realization_.truth.OverlayOn(tree), model_.deadline(),
                                           model_.options().grid);
    stack = &query_stack_;
  }

  // start_offset of tier i is the *planned* send time of tier i-1, computed
  // with a scratch policy instance so that each tier's plan is consistent
  // with the policy's own decisions.
  contexts_.resize(static_cast<size_t>(tiers));
  double offset = 0.0;
  for (int tier = 0; tier < tiers; ++tier) {
    AggregatorContext& ctx = contexts_[static_cast<size_t>(tier)];
    ctx.tier = tier;
    ctx.deadline = model_.deadline();
    ctx.start_offset = offset;
    ctx.fanout = tree.stage(tier).fanout;
    ctx.offline_tree = &tree;
    ctx.upper_quality = &(*stack)[static_cast<size_t>(tier + 1)];
    ctx.epsilon = model_.epsilon();
    ctx.table_store = model_.options().table_store;
    ctx.memo = &memo_;
    if (trace_ptr != nullptr) {
      trace_ptr->RecordTierPlan(tier, offset);
    }
    if (tier + 1 < tiers) {
      auto scratch = policy_prototype.Clone();
      scratch->BeginQuery(ctx, &realization_.truth);
      offset = scratch->DecideInitialWait(ctx);
    }
  }

  // Tier i has StageEdgeCount(i+1) nodes (= number of stage-(i+1) edges).
  nodes_.resize(static_cast<size_t>(tiers));
  for (int tier = 0; tier < tiers; ++tier) {
    const AggregatorContext& ctx = contexts_[static_cast<size_t>(tier)];
    auto& row = nodes_[static_cast<size_t>(tier)];
    row = std::vector<AggregatorNode>(static_cast<size_t>(StageEdgeCount(tree, tier + 1)));
    for (size_t i = 0; i < row.size(); ++i) {
      auto policy = policy_prototype.Clone();
      policy->BeginQuery(ctx, &realization_.truth);
      row[i].Init(tier, static_cast<long long>(i), std::move(policy), &ctx, origin_, trace_ptr);
    }
  }
}

void QueryTree::Start() {
  CEDAR_CHECK(!started_) << "a query tree starts once";
  started_ = true;
  for (std::vector<AggregatorNode>& row : nodes_) {
    for (AggregatorNode& node : row) {
      node.Start(origin_);
    }
  }
}

double QueryTree::LeafWeight(size_t leaf) const {
  return realization_.leaf_weights.empty() ? 1.0 : realization_.leaf_weights[leaf];
}

double QueryTree::ArrivalAbove(const AggregatorNode& node) const {
  return node.send_time() + realization_.stage_durations[static_cast<size_t>(node.tier() + 1)]
                                                        [static_cast<size_t>(node.index())];
}

void QueryTree::AccountSend(const AggregatorNode& node) {
  if (node.tier() == 0) {
    tier0_send_sum_ += node.send_time() - origin_;
    ++tier0_sends_;
  }
  if (node.tier() + 1 == static_cast<int>(nodes_.size())) {
    // Top tier: delivered to the root, subject to the deadline.
    if (InTime(ArrivalAbove(node))) {
      included_weight_ += node.included_weight();
      root_senders_.push_back(node.index());
    } else {
      ++root_late_;
    }
  }
}

void QueryTree::TraceRootArrival(double arrive_at) {
  if (trace_.active()) {
    trace_.RecordRootArrival(arrive_at - origin_, InTime(arrive_at));
  }
}

namespace {

// An event's key: its place in a queued run, every event of the query on
// one heap popped in (time, seq) order, seq counting the schedules
// (DESIGN.md §4, "Aggregator loop"). An event queued before the
// run is Pre(n), n its place in the scheduling order: every aggregator's
// initial timer in Start order, then the leaves in index order. An event
// queued during the run (a re-armed timer, or a send's arrival at the
// parent) is Fresh(k), k the key of the event that queued it; a moved timer
// keeps its origin.
struct EventKey {
  double time = 0.0;
  const EventKey* cause = nullptr;  // Fresh(*cause); null for Pre(pre)
  long long pre = 0;
};

// Keys compare by time, then Pre before Fresh, Pre by n and Fresh by k.
// That is the heap's (time, seq) order: events run in key order, each
// queues at most one other, and a seq counts up in scheduling order.
bool Before(const EventKey& first, const EventKey& second) {
  const EventKey* a = &first;
  const EventKey* b = &second;
  for (;;) {
    if (a->time != b->time) {
      return a->time < b->time;
    }
    if (a->cause == nullptr || b->cause == nullptr) {
      return a->cause == nullptr && (b->cause != nullptr || a->pre < b->pre);
    }
    a = a->cause;
    b = b->cause;
  }
}

// One aggregator's keys. They live for the whole run: the parent's arrival
// keys point at |send|, and a re-armed |timer| at |armed_by|, which no
// arrival overwrites once the node has sent.
struct NodeKeys {
  EventKey timer;     // the armed timer's event
  EventKey armed_by;  // the arrival that armed it, unless it is the initial one
  EventKey send;      // the event the node sent at
};

// The trace records one event made, [begin, end) in recording order.
struct TraceSpan {
  EventKey key;
  size_t begin = 0;
  size_t end = 0;
};

}  // namespace

FixedTimeRun QueryTree::RunFixedTimeLeaves(const std::vector<double>& leaf_times,
                                           const std::function<void(long long)>& accepted) {
  return RunFixedTimeLeaves(LeafOrder(leaf_times, contexts_.front().fanout), accepted);
}

FixedTimeRun QueryTree::RunFixedTimeLeaves(const LeafOrder& leaves,
                                           const std::function<void(long long)>& accepted) {
  CEDAR_PROFILE_SCOPE("sim.fixed_time_run");
  CEDAR_CHECK_EQ(leaves.size(), realization_.stage_durations[0].size());
  CEDAR_CHECK_EQ(leaves.fanout(), contexts_.front().fanout);
  const size_t tiers = nodes_.size();
  QueryTraceBuilder* trace = this->trace();

  // The initial timers, in Start's order, then the leaves are the Pre
  // events.
  Start();
  std::vector<std::vector<NodeKeys>> keys(tiers);
  long long pre = 0;
  for (size_t tier = 0; tier < tiers; ++tier) {
    keys[tier].resize(nodes_[tier].size());
    for (size_t i = 0; i < nodes_[tier].size(); ++i) {
      keys[tier][i].timer = {nodes_[tier][i].timer_at(), nullptr, pre++};
    }
  }
  const long long first_leaf = pre;
  long long events = pre + static_cast<long long>(leaves.size());
  double end_time = std::max(origin_, leaves.latest());
  std::vector<TraceSpan> spans;
  const size_t first_run_record = trace != nullptr ? trace->records() : 0;

  // Bottom tier first, each node runs its child arrivals in key order,
  // merged with its one timer, up to its send. Outputs after the send fire
  // in a queued run but change nothing, so only their times are read.
  std::vector<ChildArrival> arrivals;
  for (size_t tier = 0; tier < tiers; ++tier) {
    const bool top = tier + 1 == tiers;
    const auto fanout = static_cast<size_t>(contexts_[tier].fanout);
    // A child output's arrival key: a leaf's is Pre, a child aggregator's
    // is Fresh of its send.
    const auto key_of = [&](const ChildArrival& arrival) {
      return tier == 0 ? EventKey{arrival.time, nullptr,
                                  first_leaf + static_cast<long long>(arrival.child)}
                       : EventKey{arrival.time, &keys[tier - 1][arrival.child].send, 0};
    };
    for (size_t i = 0; i < nodes_[tier].size(); ++i) {
      // [next, ready) of |sorted| is in key order and holds every arrival
      // at or before |bound|. A tier-0 block comes sorted through. Above,
      // arrivals are sorted only as far as the timer reaches, and the later
      // ones stay unsorted behind them, so a node that sends early sorts
      // only what it takes.
      const ChildArrival* sorted = nullptr;
      size_t next = 0;
      size_t ready = 0;
      double bound = -kSimTimeInfinity;
      if (tier == 0) {
        const std::span<const ChildArrival> block = leaves.block(i);
        sorted = block.data();
        ready = block.size();
        bound = kSimTimeInfinity;
      } else {
        arrivals.resize(fanout);
        for (size_t j = 0; j < fanout; ++j) {
          const size_t child = i * fanout + j;
          const double time = ArrivalAbove(nodes_[tier - 1][child]);
          arrivals[j] = {time, child};
          end_time = std::max(end_time, time);
        }
        sorted = arrivals.data();
      }
      const auto sort_through = [&](double t) {
        if (t <= bound) {
          return;
        }
        const auto first = arrivals.begin() + static_cast<std::ptrdiff_t>(ready);
        const auto last = std::partition(first, arrivals.end(),
                                         [t](const ChildArrival& a) { return a.time <= t; });
        std::sort(first, last, [&](const ChildArrival& a, const ChildArrival& b) {
          return a.time != b.time ? a.time < b.time : Before(key_of(a), key_of(b));
        });
        ready = static_cast<size_t>(last - arrivals.begin());
        bound = t;
      };

      AggregatorNode& node = nodes_[tier][i];
      NodeKeys& node_keys = keys[tier][i];
      while (!node.closed()) {
        sort_through(node_keys.timer.time);
        const size_t first_record = trace != nullptr ? trace->records() : 0;
        const ChildArrival* arrival = nullptr;
        EventKey event;  // the running event's key
        AggregatorNode::Step step;
        if (next < ready && Before(event = key_of(sorted[next]), node_keys.timer)) {
          arrival = &sorted[next++];
          const double weight = tier == 0 ? LeafWeight(arrival->child)
                                          : nodes_[tier - 1][arrival->child].included_weight();
          step = node.OnChildOutput(arrival->time, weight);
          if (step == AggregatorNode::Step::kArmed) {
            node_keys.armed_by = event;
            node_keys.timer = {node.timer_at(), &node_keys.armed_by, 0};
            ++events;
          }
        } else {
          event = node_keys.timer;
          end_time = std::max(end_time, event.time);
          step = node.OnTimer(event.time);
          if (step == AggregatorNode::Step::kMoved) {
            node_keys.timer.time = node.timer_at();
          }
        }
        if (step == AggregatorNode::Step::kSent) {
          node_keys.send = event;
          if (top) {
            TraceRootArrival(ArrivalAbove(node));
          } else {
            ++events;  // the arrival at the parent
          }
        }
        // Only arrivals and sends record, so a span's key is final.
        if (trace != nullptr && trace->records() > first_record) {
          spans.push_back({event, first_record, trace->records()});
        }
        if (arrival != nullptr && tier == 0 && accepted) {
          accepted(static_cast<long long>(arrival->child));
        }
      }
    }
  }

  // The accounting and the trace records in the queued run's order.
  std::vector<size_t> order;
  const auto account_in_send_order = [&](size_t tier) {
    order.resize(nodes_[tier].size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return Before(keys[tier][a].send, keys[tier][b].send);
    });
    for (size_t i : order) {
      AccountSend(nodes_[tier][i]);
    }
  };
  account_in_send_order(0);
  if (tiers > 1) {
    account_in_send_order(tiers - 1);
  }
  if (trace != nullptr) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) { return Before(a.key, b.key); });
    order.resize(first_run_record);
    std::iota(order.begin(), order.end(), size_t{0});
    for (const TraceSpan& span : spans) {
      for (size_t r = span.begin; r < span.end; ++r) {
        order.push_back(r);
      }
    }
    trace->PermuteRecords(order);
  }

  FixedTimeRun run{Result(), end_time};
  run.result.events = events;
  return run;
}

QueryResult QueryTree::Result() const {
  // Every aggregator sends exactly once: each tier-0 node, and each top-tier
  // node either in time or late.
  CEDAR_CHECK_EQ(tier0_sends_, static_cast<long long>(nodes_.front().size()));
  CEDAR_CHECK_EQ(static_cast<long long>(root_senders_.size()) + root_late_,
                 static_cast<long long>(nodes_.back().size()));
  QueryResult result;
  result.total_weight = realization_.TotalWeight();
  result.included_weight = included_weight_;
  result.quality = result.total_weight > 0.0 ? included_weight_ / result.total_weight : 0.0;
  // The included weight sums the leaf weights that reached the root in
  // arrival order, through the tiers; the total sums all of them in index
  // order. Any two orders of n non-negative terms agree within
  // 2 * gamma_{n-1} ~ (n - 1) * DBL_EPSILON of the total, so n * DBL_EPSILON
  // of it is the allowance. Unit weights sum exactly.
  const auto leaves = static_cast<double>(realization_.stage_durations[0].size());
  CEDAR_CHECK(std::isfinite(result.quality)) << "quality " << result.quality;
  CEDAR_CHECK(included_weight_ >= 0.0 &&
              included_weight_ <= result.total_weight * (1.0 + leaves * DBL_EPSILON))
      << "included weight " << included_weight_ << " outside [0, total weight "
      << result.total_weight << "]";
  result.root_arrivals_in_time = static_cast<long long>(root_senders_.size());
  result.root_arrivals_late = root_late_;
  result.mean_tier0_send_time =
      tier0_sends_ > 0 ? tier0_send_sum_ / static_cast<double>(tier0_sends_) : 0.0;
  return result;
}

}  // namespace cedar
