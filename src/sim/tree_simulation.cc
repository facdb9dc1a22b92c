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
  EventQueue queue;
  tree.Start(queue);

  // Every leaf process is dispatched at time 0 and completes at its sampled
  // duration.
  const auto& leaf_durations = realization.stage_durations[0];
  for (size_t leaf = 0; leaf < leaf_durations.size(); ++leaf) {
    queue.Schedule(leaf_durations[leaf], [&queue, &tree, leaf] {
      tree.DeliverLeaf(queue, static_cast<long long>(leaf));
    });
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
