#include "src/sim/tree_simulation.h"

#include <algorithm>
#include <utility>

#include "src/obs/query_trace.h"

namespace cedar {

TreeSimulation::TreeSimulation(TreeSpec offline_tree, double deadline,
                               TreeSimulationOptions options)
    : model_(std::move(offline_tree), deadline, options) {}

QueryResult TreeSimulation::RunQuery(const WaitPolicy& policy_prototype,
                                     const QueryRealization& realization) const {
  QueryTree tree(model_, policy_prototype, realization, "sim");
  // No payload: only the tree's own accounting.
  const FixedTimeRun run = tree.RunFixedTimeLeaves(realization.stage_durations[0]);
  const QueryResult& result = run.result;
  if (QueryTraceBuilder* trace = tree.trace()) {
    trace->Finish(
        std::max(run.end_time, deadline()), result.quality,
        {TraceArg::Num("root_in_time", static_cast<double>(result.root_arrivals_in_time)),
         TraceArg::Num("root_late", static_cast<double>(result.root_arrivals_late)),
         TraceArg::Num("mean_tier0_send_time", result.mean_tier0_send_time)});
  }
  return result;
}

}  // namespace cedar
