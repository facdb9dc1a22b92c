#include "src/apps/search_service.h"

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/sim/aggregator_node.h"
#include "src/sim/event_queue.h"

namespace cedar {

SearchService::SearchService(const SearchIndex* index, TreeSpec latency_tree,
                             SearchServiceConfig config)
    : index_(index), latency_tree_(std::move(latency_tree)), config_(config) {
  CEDAR_CHECK(index_ != nullptr);
  CEDAR_CHECK_EQ(latency_tree_.num_stages(), 2) << "search uses a two-level tree (Figure 2)";
  CEDAR_CHECK_EQ(latency_tree_.TotalProcesses(), index_->num_shards())
      << "latency-tree fanouts must cover every index shard";
  CEDAR_CHECK_GT(config_.deadline, 0.0);
  epsilon_ = config_.grid.Epsilon(config_.deadline);
  offline_stack_ = BuildUpperQualityCurves(latency_tree_, config_.deadline, config_.grid);
}

SearchQueryOutcome SearchService::RunQuery(const WaitPolicy& policy,
                                           const std::vector<int>& query,
                                           const QueryRealization& realization) const {
  int k1 = latency_tree_.stage(0).fanout;
  int k2 = latency_tree_.stage(1).fanout;
  CEDAR_CHECK_EQ(static_cast<int>(realization.stage_durations[0].size()), k1 * k2);

  // Per-query upper-stage knowledge, as in the simulators.
  std::vector<PiecewiseLinear> query_stack;
  const std::vector<PiecewiseLinear>* stack = &offline_stack_;
  if (config_.per_query_upper_knowledge) {
    TreeSpec truth_tree = realization.truth.OverlayOn(latency_tree_);
    query_stack = BuildUpperQualityCurves(truth_tree, config_.deadline, config_.grid);
    stack = &query_stack;
  }

  AggregatorContext ctx;
  ctx.tier = 0;
  ctx.deadline = config_.deadline;
  ctx.start_offset = 0.0;
  ctx.fanout = k1;
  ctx.offline_tree = &latency_tree_;
  ctx.upper_quality = &(*stack)[1];
  ctx.epsilon = epsilon_;

  EventQueue queue;
  std::vector<AggregatorNode> nodes(static_cast<size_t>(k2));
  // Ranked lists collected so far at each aggregator (only while open).
  std::vector<std::vector<std::vector<SearchHit>>> collected(static_cast<size_t>(k2));

  SearchQueryOutcome outcome;
  outcome.total_shards = k1 * k2;
  std::vector<std::vector<SearchHit>> root_lists;

  int aggregator_misses = 0;
  auto send_fn = [&](AggregatorNode& node, double weight) {
    auto agg = static_cast<size_t>(node.index());
    double ship = realization.stage_durations[1][agg];
    if (queue.now() + ship <= config_.deadline) {
      // The aggregator forwards its merged top-K (Figure 2: "sends the top
      // few of them upstream").
      root_lists.push_back(MergeTopK(collected[agg], config_.top_k));
      outcome.shards_included += static_cast<int>(weight);
    } else {
      ++aggregator_misses;
    }
  };

  for (int a = 0; a < k2; ++a) {
    auto node_policy = policy.Clone();
    node_policy->BeginQuery(ctx, &realization.truth);
    nodes[static_cast<size_t>(a)].Init(0, a, std::move(node_policy), &ctx);
    nodes[static_cast<size_t>(a)].Start(queue, send_fn);
  }

  // Shard completions: shard s (owned by aggregator s / k1) delivers its
  // local top-K at its sampled latency.
  for (int s = 0; s < k1 * k2; ++s) {
    auto agg = static_cast<size_t>(s / k1);
    double latency = realization.stage_durations[0][static_cast<size_t>(s)];
    queue.Schedule(latency, [&, s, agg] {
      AggregatorNode& node = nodes[agg];
      if (node.closed()) {
        return;  // aggregator already sent; the shard's output is wasted
      }
      collected[agg].push_back(
          index_->shard(s).TopK(query, config_.top_k, *index_));
      node.OnChildOutput(queue, 1.0);
    });
  }

  queue.Run();

  std::vector<SearchHit> response = MergeTopK(root_lists, config_.top_k);
  std::vector<SearchHit> exact = index_->ExactTopK(query, config_.top_k);
  outcome.recall = RecallAtK(exact, response);
  outcome.fraction_quality =
      static_cast<double>(outcome.shards_included) / static_cast<double>(outcome.total_shards);

  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("search.queries").Increment();
    registry.GetCounter("search.deadline_misses").Increment(aggregator_misses);
    registry.GetHistogram("search.recall", {1e-4, 1.0, 40}).Observe(outcome.recall);
    registry.GetHistogram("search.fraction_quality", {1e-4, 1.0, 40})
        .Observe(outcome.fraction_quality);
  }
  return outcome;
}

}  // namespace cedar
