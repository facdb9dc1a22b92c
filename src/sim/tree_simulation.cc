#include "src/sim/tree_simulation.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/query_trace.h"

namespace cedar {

TreeSimulation::TreeSimulation(TreeSpec offline_tree, double deadline,
                               TreeSimulationOptions options)
    : model_(std::move(offline_tree), deadline, options) {}

void TreeSimulation::RunQuery(std::span<const WaitPolicy* const> policies,
                              const QueryRealization& realization,
                              std::span<QueryResult> results) const {
  CEDAR_CHECK_EQ(policies.size(), results.size());
  const LeafOrder order(realization.stage_durations[0], offline_tree().stage(0).fanout);
  for (size_t p = 0; p < policies.size(); ++p) {
    QueryTree tree(model_, *policies[p], realization, "sim");
    // No payload: only the tree's own accounting.
    const FixedTimeRun run = tree.RunFixedTimeLeaves(order);
    const QueryResult& result = run.result;
    if (QueryTraceBuilder* trace = tree.trace()) {
      trace->Finish(
          std::max(run.end_time, deadline()), result.quality,
          {TraceArg::Num("root_in_time", static_cast<double>(result.root_arrivals_in_time)),
           TraceArg::Num("root_late", static_cast<double>(result.root_arrivals_late)),
           TraceArg::Num("mean_tier0_send_time", result.mean_tier0_send_time)});
    }
    results[p] = result;
  }
}

QueryResult TreeSimulation::RunQuery(const WaitPolicy& policy_prototype,
                                     const QueryRealization& realization) const {
  const WaitPolicy* const policies[] = {&policy_prototype};
  QueryResult result;
  RunQuery(policies, realization, std::span<QueryResult>(&result, 1));
  return result;
}

}  // namespace cedar
