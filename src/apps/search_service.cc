#include "src/apps/search_service.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/query_trace.h"

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

  // Shard s (owned by aggregator s / k1) delivers its local top-K at its
  // sampled latency; an aggregator that already sent wastes it.
  // collected[a] holds aggregator a's included lists.
  QueryTree tree(model_, policy, realization, "search");
  std::vector<std::vector<std::vector<SearchHit>>> collected(
      static_cast<size_t>(shards / k1));
  const FixedTimeRun run = tree.RunFixedTimeLeaves(realization.stage_durations[0], [&](long long s) {
    const int shard = static_cast<int>(s);
    collected[static_cast<size_t>(shard / k1)].push_back(
        index_->shard(shard).TopK(query, config_.top_k, *index_));
  });
  const QueryResult& result = run.result;

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
    trace->Finish(std::max(run.end_time, model_.deadline()), result.quality,
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
