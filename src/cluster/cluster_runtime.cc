#include "src/cluster/cluster_runtime.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/query_trace.h"
#include "src/sim/event_queue.h"

namespace cedar {
namespace {

// Bookkeeping for one logical map task, which may have several racing
// copies (original + speculative clones).
struct TaskState {
  double first_launch_time = 0.0;
  bool launched = false;
  bool completed = false;
  int copies_in_flight = 0;
  // Parallel arrays: the pending completion event and occupied slot of each
  // in-flight copy.
  std::vector<uint64_t> completion_handles;
  std::vector<int> copy_slots;
};

}  // namespace

int ClusterSpec::SlowMachines() const {
  return static_cast<int>(static_cast<double>(machines) * slow_machine_fraction);
}

double ClusterSpec::SlotSpeedFactor(int slot) const {
  CEDAR_CHECK(slot >= 0 && slot < TotalSlots());
  int machine = slot / slots_per_machine;
  return machine < SlowMachines() ? slow_machine_factor : 1.0;
}

ClusterRuntime::ClusterRuntime(ClusterSpec cluster, TreeSpec offline_tree, double deadline,
                               ClusterRunOptions options)
    : cluster_(cluster), options_(options), model_(std::move(offline_tree), deadline, options) {
  CEDAR_CHECK_GE(cluster_.TotalSlots(), 1);
}

ClusterQueryResult ClusterRuntime::RunQuery(const WaitPolicy& policy_prototype,
                                            const QueryRealization& realization) const {
  QueryTree tree(model_, policy_prototype, realization, "cluster");
  EventQueue queue;
  ClusterQueryResult result;
  tree.Start(queue);

  // ---- Slot-scheduled leaf (map) stage ----
  const auto& durations = realization.stage_durations[0];
  auto total_tasks = static_cast<long long>(durations.size());
  int slots = cluster_.TotalSlots();
  result.waves = static_cast<int>((total_tasks + slots - 1) / slots);

  std::vector<TaskState> tasks(static_cast<size_t>(total_tasks));
  long long next_pending = 0;
  // Explicit slot identities so heterogeneity can scale task durations by
  // placement.
  std::vector<int> free_slot_ids(static_cast<size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    free_slot_ids[static_cast<size_t>(s)] = s;
  }
  // The scheduler does not know which machines are slow; shuffle the
  // placement order (deterministically per query) so hot spots are hit in
  // proportion to their share of the cluster.
  {
    Rng placement_rng(options_.runtime_seed ^
                      (realization.truth.sequence * 0x9E3779B97F4A7C15ull) ^ 0xBEEF);
    for (size_t i = free_slot_ids.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(placement_rng.NextBounded(i));
      std::swap(free_slot_ids[i - 1], free_slot_ids[j]);
    }
  }
  // Sorted ascending, so the median is the middle element.
  std::vector<double> completed_durations;
  completed_durations.reserve(static_cast<size_t>(total_tasks));
  long long clones_total = 0;
  // Lowest task index that may still be cloned (see try_speculate).
  long long oldest = 0;

  // Clone durations are runtime randomness (a speculative copy re-executes
  // the work), seeded per query for reproducibility.
  Rng clone_rng(options_.runtime_seed ^ (realization.truth.sequence * 0x9E3779B97F4A7C15ull) ^
                0xC0FFEE);

  // Forward declarations via std::function so the completion handler can
  // start follow-up work.
  std::function<void()> fill_slots;

  auto launch_copy = [&](long long task_index, double service_duration) {
    TaskState& task = tasks[static_cast<size_t>(task_index)];
    CEDAR_CHECK(!free_slot_ids.empty());
    int slot = free_slot_ids.back();
    free_slot_ids.pop_back();
    double duration = service_duration * cluster_.SlotSpeedFactor(slot);
    ++result.tasks_launched;
    ++task.copies_in_flight;
    if (!task.launched) {
      task.launched = true;
      task.first_launch_time = queue.now();
    }
    bool is_clone = task.copies_in_flight > 1;
    uint64_t handle =
        queue.Schedule(queue.now() + duration, [&, task_index, duration, is_clone, slot] {
          TaskState& t = tasks[static_cast<size_t>(task_index)];
          --t.copies_in_flight;
          free_slot_ids.push_back(slot);
          for (size_t ci = 0; ci < t.copy_slots.size(); ++ci) {
            if (t.copy_slots[ci] == slot) {
              t.copy_slots.erase(t.copy_slots.begin() + static_cast<long>(ci));
              t.completion_handles.erase(t.completion_handles.begin() + static_cast<long>(ci));
              break;
            }
          }
          if (!t.completed) {
            t.completed = true;
            if (is_clone) {
              ++result.clones_won;
            }
            completed_durations.insert(std::upper_bound(completed_durations.begin(),
                                                        completed_durations.end(), duration),
                                       duration);
            // Kill the losing copies: cancel their completions, free slots.
            for (uint64_t h : t.completion_handles) {
              queue.Cancel(h);
            }
            for (int losing_slot : t.copy_slots) {
              free_slot_ids.push_back(losing_slot);
            }
            t.copies_in_flight = 0;
            t.completion_handles.clear();
            t.copy_slots.clear();
            tree.DeliverLeaf(queue, task_index);
          }
          result.makespan = queue.now();
          fill_slots();
        });
    task.completion_handles.push_back(handle);
    task.copy_slots.push_back(slot);
  };

  bool spec_check_scheduled = false;

  auto try_speculate = [&]() -> bool {
    if (!options_.speculation.enabled || free_slot_ids.empty()) {
      return false;
    }
    if (clones_total >= options_.speculation.max_clones || completed_durations.empty()) {
      return false;
    }
    double median = completed_durations[completed_durations.size() / 2];
    // Longest-running un-cloned task exceeding the slowdown threshold.
    // Originals launch in index order at non-decreasing times, and a task
    // that is cloned or completes never becomes a candidate again. So the
    // lowest running, un-cloned index has the earliest launch, hence the
    // longest elapsed time (first among equals), and |oldest| only moves
    // forward.
    while (oldest < next_pending && (tasks[static_cast<size_t>(oldest)].completed ||
                                     tasks[static_cast<size_t>(oldest)].copies_in_flight != 1)) {
      ++oldest;
    }
    if (oldest == next_pending) {
      return false;
    }
    const double launched_at = tasks[static_cast<size_t>(oldest)].first_launch_time;
    const double longest = queue.now() - launched_at;
    if (longest <= 0.0) {
      return false;
    }
    double threshold = options_.speculation.slowdown_threshold * median;
    if (longest < threshold) {
      // Not slow enough yet. A straggler crosses the threshold without any
      // completion event firing, so poll again when the current
      // longest-runner would qualify.
      if (!spec_check_scheduled) {
        spec_check_scheduled = true;
        double check_at = std::max(queue.now() + 1e-9, launched_at + threshold);
        queue.Schedule(check_at, [&] {
          spec_check_scheduled = false;
          fill_slots();
        });
      }
      return false;
    }
    ++clones_total;
    ++result.clones_launched;
    double clone_duration = realization.truth.stage_durations[0]->Sample(clone_rng);
    launch_copy(oldest, clone_duration);
    return true;
  };

  fill_slots = [&]() {
    while (!free_slot_ids.empty() && next_pending < total_tasks) {
      long long task_index = next_pending++;
      launch_copy(task_index, durations[static_cast<size_t>(task_index)]);
    }
    while (try_speculate()) {
    }
  };

  fill_slots();
  queue.Run();
  result.events = static_cast<long long>(queue.scheduled());

  static_cast<QueryResult&>(result) = tree.Result();
  if (QueryTraceBuilder* trace = tree.trace()) {
    trace->Finish(
        std::max(result.makespan, deadline()), result.quality,
        {TraceArg::Num("waves", result.waves),
         TraceArg::Num("tasks_launched", static_cast<double>(result.tasks_launched)),
         TraceArg::Num("clones_launched", static_cast<double>(result.clones_launched)),
         TraceArg::Num("clones_won", static_cast<double>(result.clones_won)),
         TraceArg::Num("root_late", static_cast<double>(result.root_arrivals_late))});
  }
  return result;
}

}  // namespace cedar
