// A QueryRealization is one query's fully-sampled randomness: every edge
// duration in the aggregation tree, pre-drawn from the query's true
// distributions. Pre-sampling decouples the stochastic workload from the
// deterministic simulation so that competing policies can be replayed on
// *identical* realizations — exactly how the paper replays production jobs
// across schemes (Figures 7, 8, 10-16).

#ifndef CEDAR_SRC_SIM_REALIZATION_H_
#define CEDAR_SRC_SIM_REALIZATION_H_

#include <vector>

#include "src/core/policy.h"
#include "src/core/tree.h"
#include "src/stats/rng.h"

namespace cedar {

struct QueryRealization {
  // True per-stage distributions for this query (for Oracle and metrics).
  QueryTruth truth;

  // stage_durations[i][e]: the sampled duration of edge |e| in stage |i|.
  // Stage i has prod_{j >= i} fanout_j edges; edge e of stage i belongs to
  // parent e / fanout_i. Stage 0 edges are leaf process durations, the last
  // stage's edges are top-aggregator-to-root shipping times.
  std::vector<std::vector<double>> stage_durations;

  // Optional per-leaf output weights (weighted-quality extension,
  // Appendix A), each >= 0. Empty means every process output weighs 1.
  std::vector<double> leaf_weights;

  // Sum of leaf weights (or the leaf count when unweighted).
  double TotalWeight() const;
};

// Number of edges in stage |stage| of |tree|: product of fanouts j >= stage.
long long StageEdgeCount(const TreeSpec& tree, int stage);

// Samples a realization of |truth| on the shape of |tree| (fanouts only; the
// tree's own distributions are ignored). Durations of each stage are drawn
// i.i.d. from truth.stage_durations[i].
QueryRealization SampleRealization(const TreeSpec& tree, const QueryTruth& truth, Rng& rng);

// Like SampleRealization but also draws per-leaf weights from |weight_dist|.
QueryRealization SampleWeightedRealization(const TreeSpec& tree, const QueryTruth& truth,
                                           const Distribution& weight_dist, Rng& rng);

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_REALIZATION_H_
