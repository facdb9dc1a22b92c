#include "src/apps/search_service.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/query_trace.h"
#include "src/sim/event_queue.h"

namespace cedar {

SearchService::SearchService(const SearchIndex* index, TreeSpec latency_tree,
                             SearchServiceConfig config)
    : index_(index),
      config_(config),
      model_(std::move(latency_tree), config.deadline,
             {.grid = config.grid, .per_query_upper_knowledge = config.per_query_upper_knowledge}) {
  CEDAR_CHECK(index_ != nullptr);
  const TreeSpec& tree = model_.offline_tree();
  CEDAR_CHECK_EQ(tree.num_stages(), 2) << "search uses a two-level tree (Figure 2)";
  CEDAR_CHECK_EQ(tree.TotalProcesses(), index_->num_shards())
      << "latency-tree fanouts must cover every index shard";
}

SearchQueryOutcome SearchService::RunQuery(const WaitPolicy& policy,
                                           const std::vector<int>& query,
                                           const QueryRealization& realization) const {
  const int k1 = latency_tree().stage(0).fanout;
  const int shards = index_->num_shards();
  CEDAR_CHECK_EQ(static_cast<int>(realization.stage_durations[0].size()), shards);
  CEDAR_CHECK(realization.leaf_weights.empty()) << "search counts shards, not weights";

  QueryTree tree(model_, policy, realization, "search");
  EventQueue queue;
  queue.Reserve(realization.stage_durations[0].size() + static_cast<size_t>(tree.aggregators()));
  tree.Start(queue);

  // Shard completions: shard s (owned by aggregator s / k1) delivers its
  // local top-K at its sampled latency; an aggregator that already sent
  // wastes it. collected[a] holds aggregator a's included lists.
  std::vector<std::vector<std::vector<SearchHit>>> collected(
      static_cast<size_t>(shards / k1));
  // What every shard's completion reads, so each closure captures one
  // pointer and its index and std::function keeps it inline.
  struct Shards {
    QueryTree& tree;
    std::vector<std::vector<std::vector<SearchHit>>>& collected;
    const SearchIndex& index;
    const std::vector<int>& query;
    int top_k;
    int k1;
  } shared{tree, collected, *index_, query, config_.top_k, k1};
  for (int s = 0; s < shards; ++s) {
    auto complete = [leaves = &shared, s] {
      if (leaves->tree.DeliverLeaf(s)) {
        leaves->collected[static_cast<size_t>(s / leaves->k1)].push_back(
            leaves->index.shard(s).TopK(leaves->query, leaves->top_k, leaves->index));
      }
    };
    static_assert(sizeof(complete) <= 16);
    queue.Schedule(realization.stage_durations[0][static_cast<size_t>(s)], complete);
  }

  queue.Run();
  QueryResult result = tree.Result();

  // Each aggregator that reached the root in time forwarded its merged
  // top-K (Figure 2: "sends the top few of them upstream").
  std::vector<std::vector<SearchHit>> root_lists;
  for (long long agg : tree.root_senders()) {
    root_lists.push_back(MergeTopK(collected[static_cast<size_t>(agg)], config_.top_k));
  }
  std::vector<SearchHit> response = MergeTopK(root_lists, config_.top_k);
  std::vector<SearchHit> exact = index_->ExactTopK(query, config_.top_k);

  SearchQueryOutcome outcome;
  outcome.total_shards = shards;
  outcome.shards_included = static_cast<int>(result.included_weight);
  outcome.recall = RecallAtK(exact, response);
  outcome.fraction_quality =
      static_cast<double>(outcome.shards_included) / static_cast<double>(outcome.total_shards);

  if (QueryTraceBuilder* trace = tree.trace()) {
    trace->Finish(std::max(queue.now(), model_.deadline()), result.quality,
                  {TraceArg::Num("recall", outcome.recall)});
  }
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("search.queries").Increment();
    registry.GetCounter("search.deadline_misses").Increment(result.root_arrivals_late);
    registry.GetHistogram("search.recall").Observe(outcome.recall);
    registry.GetHistogram("search.fraction_quality").Observe(outcome.fraction_quality);
  }
  return outcome;
}

}  // namespace cedar
