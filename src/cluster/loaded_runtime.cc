#include "src/cluster/loaded_runtime.h"

#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/query_trace.h"
#include "src/sim/event_queue.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"

namespace cedar {
namespace {

// One query: its realization and its aggregation tree, timed from its
// arrival. Heap-allocated so addresses stay stable while the deque of jobs
// grows.
struct JobState {
  JobState(const QueryTreeModel& model, const WaitPolicy& policy, QueryRealization sampled,
           double arrival_time)
      : arrival(arrival_time),
        realization(std::move(sampled)),
        tree(model, policy, realization, "loaded", arrival_time) {}

  double arrival;
  QueryRealization realization;
  QueryTree tree;
};

struct PendingTask {
  JobState* job = nullptr;
  long long task_index = 0;
};

}  // namespace

LoadedRunResult RunLoadedCluster(const Workload& workload, const WaitPolicy& policy,
                                 const LoadedRunConfig& config) {
  CEDAR_CHECK_GT(config.deadline, 0.0);
  CEDAR_CHECK_GT(config.mean_interarrival, 0.0);
  CEDAR_CHECK_GT(config.num_queries, 0);
  CEDAR_CHECK_GE(config.cluster.TotalSlots(), 1);
  CEDAR_CHECK(config.cluster.SlowMachines() == 0 || config.cluster.slow_machine_factor == 1.0)
      << "RunLoadedCluster does not model machine heterogeneity "
         "(slow_machine_fraction/slow_machine_factor); use ClusterRuntime";

  const QueryTreeModel model(workload.OfflineTree(), config.deadline, config);

  EventQueue queue;
  Rng rng(config.seed);
  long long arrivals = 0;

  std::deque<std::unique_ptr<JobState>> jobs;
  std::deque<PendingTask> pending;
  int free_slots = config.cluster.TotalSlots();

  LoadedRunResult result;
  double queue_delay_sum = 0.0;
  long long tasks_started = 0;
  double busy_time = 0.0;

  std::function<void()> fill_slots;

  auto start_job = [&](QueryTruth truth) {
    Rng realization_rng = rng.Fork();
    auto job = std::make_unique<JobState>(
        model, policy, SampleRealization(model.offline_tree(), truth, realization_rng),
        queue.now());
    job->tree.Start(queue);
    // Enqueue all map tasks FIFO behind earlier jobs' tasks.
    auto tasks = static_cast<long long>(job->realization.stage_durations[0].size());
    for (long long t = 0; t < tasks; ++t) {
      pending.push_back({job.get(), t});
    }
    jobs.push_back(std::move(job));
    fill_slots();
  };

  fill_slots = [&]() {
    while (free_slots > 0 && !pending.empty()) {
      PendingTask task = pending.front();
      pending.pop_front();
      --free_slots;
      ++tasks_started;
      queue_delay_sum += queue.now() - task.job->arrival;
      double duration =
          task.job->realization.stage_durations[0][static_cast<size_t>(task.task_index)];
      busy_time += duration;
      queue.Schedule(queue.now() + duration, [&, task] {
        ++free_slots;
        task.job->tree.DeliverLeaf(queue, task.task_index);
        result.makespan = queue.now();
        fill_slots();
      });
    }
  };

  // Poisson arrivals.
  std::function<void(int)> schedule_arrival = [&](int remaining) {
    if (remaining <= 0) {
      return;
    }
    double gap = -std::log(rng.NextOpenDouble()) * config.mean_interarrival;
    queue.Schedule(queue.now() + gap, [&, remaining] {
      QueryTruth truth = workload.DrawQuery(rng);
      truth.sequence = DriverQuerySequence(config.seed, arrivals++);
      start_job(std::move(truth));
      schedule_arrival(remaining - 1);
    });
  };
  schedule_arrival(config.num_queries);

  queue.Run();

  for (const auto& job : jobs) {
    QueryResult query = job->tree.Result();
    result.per_query_quality.Add(query.quality);
    result.root_arrivals_in_time += query.root_arrivals_in_time;
    result.root_arrivals_late += query.root_arrivals_late;
    if (QueryTraceBuilder* trace = job->tree.trace()) {
      trace->Finish(config.deadline, query.quality, {TraceArg::Num("arrival", job->arrival)});
    }
  }
  result.mean_queue_delay =
      tasks_started > 0 ? queue_delay_sum / static_cast<double>(tasks_started) : 0.0;
  result.utilization =
      result.makespan > 0.0
          ? busy_time / (result.makespan * static_cast<double>(config.cluster.TotalSlots()))
          : 0.0;
  return result;
}

}  // namespace cedar
