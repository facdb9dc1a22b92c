#include "src/sim/tree_simulation.h"

#include <algorithm>
#include <utility>

#include "src/obs/query_trace.h"
#include "src/sim/event_queue.h"

namespace cedar {

TreeSimulation::TreeSimulation(TreeSpec offline_tree, double deadline,
                               TreeSimulationOptions options)
    : model_(std::move(offline_tree), deadline, options) {}

QueryResult TreeSimulation::RunQuery(const WaitPolicy& policy_prototype,
                                     const QueryRealization& realization) const {
  QueryTree tree(model_, policy_prototype, realization, "sim");
  const auto& leaf_durations = realization.stage_durations[0];
  // Every leaf completion and every aggregator's timer are queued at once.
  EventQueue queue;
  queue.Reserve(leaf_durations.size() + static_cast<size_t>(tree.aggregators()));
  tree.Start(queue);

  // Every leaf process is dispatched at time 0 and completes at its sampled
  // duration. Two words of capture: std::function keeps the closure inline.
  for (size_t leaf = 0; leaf < leaf_durations.size(); ++leaf) {
    queue.Schedule(leaf_durations[leaf],
                   [&tree, leaf] { tree.DeliverLeaf(static_cast<long long>(leaf)); });
  }

  queue.Run();

  QueryResult result = tree.Result();
  result.events = static_cast<long long>(queue.scheduled());
  if (QueryTraceBuilder* trace = tree.trace()) {
    trace->Finish(
        std::max(queue.now(), deadline()), result.quality,
        {TraceArg::Num("root_in_time", static_cast<double>(result.root_arrivals_in_time)),
         TraceArg::Num("root_late", static_cast<double>(result.root_arrivals_late)),
         TraceArg::Num("mean_tier0_send_time", result.mean_tier0_send_time)});
  }
  return result;
}

}  // namespace cedar
