// SearchService: end-to-end ranked search over the sharded index under a
// deadline, with policy-driven aggregator waits (Figure 2's silo ->
// aggregator -> super-root flow). Quality is measured two ways per query:
//  * the paper's §3 metric — fraction of shard outputs included;
//  * recall@K of the returned ranking against the exact (no-deadline)
//    top-K — the output-relevance metric of the paper's future work (§7).

#ifndef CEDAR_SRC_APPS_SEARCH_SERVICE_H_
#define CEDAR_SRC_APPS_SEARCH_SERVICE_H_

#include <vector>

#include "src/apps/search_index.h"
#include "src/core/policy.h"
#include "src/core/quality.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"

namespace cedar {

struct SearchServiceConfig {
  int top_k = 10;
  double deadline = 0.0;
  QualityGridOptions grid;
  // Same knowledge model as the simulators (see TreeSimulationOptions).
  bool per_query_upper_knowledge = true;
};

struct SearchQueryOutcome {
  // recall@K against the exact full-index ranking.
  double recall = 0.0;
  // The §3 metric: fraction of shard outputs included at the root.
  double fraction_quality = 0.0;
  int shards_included = 0;
  int total_shards = 0;
};

class SearchService {
 public:
  // |latency_tree| supplies the fanouts (stage-0 fanout x stage-1 fanout
  // must equal index->num_shards()) and the offline latency distributions.
  // |index| must outlive the service.
  SearchService(const SearchIndex* index, TreeSpec latency_tree, SearchServiceConfig config);

  // Executes |query| with per-shard/ship latencies from |realization|
  // (sampled on the latency tree's shape, unweighted) under |policy|, on a
  // QueryTree traced as engine "search".
  SearchQueryOutcome RunQuery(const WaitPolicy& policy, const std::vector<int>& query,
                              const QueryRealization& realization) const;

  const TreeSpec& latency_tree() const { return model_.offline_tree(); }

 private:
  const SearchIndex* index_;
  SearchServiceConfig config_;
  QueryTreeModel model_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_APPS_SEARCH_SERVICE_H_
