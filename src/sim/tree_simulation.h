// Discrete-event simulation of one aggregation query (Pseudocode 1 executed
// at every aggregator of the tree).
//
// Semantics, matching the paper's model (Figure 5):
//  * All leaf processes are dispatched at time 0; process j under tier-0
//    aggregator a finishes at its sampled stage-0 duration.
//  * Each aggregator consults its WaitPolicy: an initial wait before any
//    arrival, and an updated wait after every arrival. When its timer
//    expires — or all children have reported — it sends its partial result
//    upstream; shipping takes the sampled next-stage duration.
//  * Late child outputs (after the send) are dropped.
//  * The root includes a top-tier aggregator's result iff it arrives by the
//    deadline D; a missed aggregator forfeits all the process outputs it
//    had collected.
//  * Quality = (weight of process outputs included at the root) /
//    (total weight), the paper's §3 metric (Appendix A weighting optional).

#ifndef CEDAR_SRC_SIM_TREE_SIMULATION_H_
#define CEDAR_SRC_SIM_TREE_SIMULATION_H_

#include <span>

#include "src/core/policy.h"
#include "src/core/quality.h"
#include "src/core/tree.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"

namespace cedar {

// The analytic engine needs only the shared options.
struct TreeSimulationOptions : QueryTreeOptions {};

// Shared per-(offline tree, deadline) simulation state: the offline quality
// curves every policy consults. Construct once, run many queries.
class TreeSimulation {
 public:
  TreeSimulation(TreeSpec offline_tree, double deadline, TreeSimulationOptions options = {});

  // Replays |realization| under each of |policies| (each cloned per
  // aggregator) into results[p]. The leaves' tier-0 order is sorted once
  // and every policy's tree runs over it.
  void RunQuery(std::span<const WaitPolicy* const> policies, const QueryRealization& realization,
                std::span<QueryResult> results) const;
  // One policy.
  QueryResult RunQuery(const WaitPolicy& policy_prototype,
                       const QueryRealization& realization) const;

  const TreeSpec& offline_tree() const { return model_.offline_tree(); }
  double deadline() const { return model_.deadline(); }

 private:
  QueryTreeModel model_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_TREE_SIMULATION_H_
