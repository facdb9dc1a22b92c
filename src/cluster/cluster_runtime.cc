#include "src/cluster/cluster_runtime.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "src/cluster/loaded_runtime.h"
#include "src/cluster/slot_stack.h"
#include "src/common/logging.h"
#include "src/common/time_types.h"
#include "src/obs/profiler.h"
#include "src/obs/query_trace.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"

namespace cedar {
namespace {

// A task is cloned once it has run this many times the median completed
// duration of its job's leaf stage.
constexpr double kSlowdownThreshold = 2.0;

// Speculation's bookkeeping for one leaf task. A task has at most two racing
// copies, [0] the original and [1] its clone: the picker clones only a task
// with exactly one copy in flight, and its cursor never comes back to a task.
struct TaskState {
  double first_launch_time = 0.0;
  bool completed = false;
  int copies_in_flight = 0;
  // Each copy's slot-scaled duration and slot.
  double durations[2] = {};
  int slots[2] = {};
};

// The cluster's slot count. Both engines build their cluster through
// SlotScheduler, so this is where a spec from outside input is checked. NaN
// fails every comparison.
int CheckedTotalSlots(const ClusterSpec& cluster) {
  CEDAR_CHECK(cluster.machines >= 1 && cluster.slots_per_machine >= 1 &&
              cluster.machines <= std::numeric_limits<int>::max() / cluster.slots_per_machine)
      << "ClusterSpec::machines and ::slots_per_machine must be >= 1 and their product "
      << "must fit an int, got " << cluster.machines << " x " << cluster.slots_per_machine;
  CEDAR_CHECK(cluster.slow_machine_fraction >= 0.0 && cluster.slow_machine_fraction <= 1.0)
      << "ClusterSpec::slow_machine_fraction must be in [0, 1], got "
      << cluster.slow_machine_fraction;
  CEDAR_CHECK(std::isfinite(cluster.slow_machine_factor) && cluster.slow_machine_factor > 0.0)
      << "ClusterSpec::slow_machine_factor must be finite and > 0, got "
      << cluster.slow_machine_factor;
  return cluster.TotalSlots();
}

// The cluster's one leaf scheduler. Slots have identities and are handed
// out from a shuffled stack (ShuffledSlotStack): the scheduler does not
// know which machines are slow, so hot spots are hit in proportion to
// their share of the cluster. Each submitted job is one query's leaf
// stage; its tasks start in index order, after every earlier job's tasks
// have started. With speculation on, slots left idle then clone each job's
// longest-running straggler, and the first copy to finish wins. The
// scheduler knows no query tree: aggregators hold no slots, so it only
// records when each task's winning copy completes, and the engine runs the
// query's tree from those times once the scheduler has run.
//
// Time advances over a heap of typed entries: a copy's completion, a job's
// speculation poll, or a loaded run's next arrival, popped in (time, seq)
// order, seq counting pushes, so entries due at the same time pop in the
// order they were pushed. A killed copy's completion stays in the heap and
// is dropped when it surfaces (its task has completed), without moving the
// clock. Entries point at their jobs, which a deque keeps in place.
class SlotScheduler {
 public:
  struct Stats {
    long long tasks_launched = 0;  // including clones
    long long clones_launched = 0;
    long long clones_won = 0;
    double makespan = 0.0;         // last task completion
    double queue_delay_sum = 0.0;  // slot waits of the original copies
    double busy_time = 0.0;        // slot-scaled durations of launched copies
  };

  SlotScheduler(const ClusterSpec& cluster, uint64_t placement_seed,
                SpeculationOptions speculation)
      : cluster_(cluster),
        speculation_(speculation),
        idle_slots_(CheckedTotalSlots(cluster), placement_seed) {
    // Every slot's completion and the next arrival, clones aside.
    heap_.reserve(static_cast<size_t>(cluster.TotalSlots()) + 1);
  }
  SlotScheduler(const SlotScheduler&) = delete;
  SlotScheduler& operator=(const SlotScheduler&) = delete;

  // The time of the last entry run.
  double now() const { return now_; }
  // Entries ever pushed: completions, polls and arrivals.
  uint64_t pushed() const { return pushed_; }
  const Stats& stats() const { return stats_; }

  // Queues the leaf tasks of |realization|, its stage 0, at the current
  // time behind every earlier job's. |realization| is borrowed and must
  // outlive the run. Clone durations draw from |clone_rng|. Returns each
  // task's completion time, absolute: the time its first copy finished.
  // Every entry is set once Run has emptied the heap.
  const std::vector<double>& Submit(const QueryRealization& realization, Rng clone_rng) {
    const size_t tasks = realization.stage_durations[0].size();
    CEDAR_CHECK(tasks >= 1 && tasks <= static_cast<size_t>(std::numeric_limits<int>::max()));
    Job& job = jobs_.emplace_back(realization, now_, clone_rng, static_cast<int>(tasks));
    job.completion_times.resize(tasks);
    if (speculation_.enabled) {
      job.task_states.resize(tasks);
      job.completed_durations.reserve(tasks);
    }
    waiting_.push_back(&job);
    Fill();
    return job.completion_times;
  }

  // Queues an arrival at |time|, at which Run hands control back.
  void ScheduleArrival(double time) { Push(time, Kind::kArrival, nullptr, 0, 0); }

  // Runs entries until the heap is empty, returning false, or until an
  // arrival surfaces, returning true with now() at its time.
  bool Run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later());
      const Entry entry = heap_.back();
      heap_.pop_back();
      if (entry.kind == Kind::kCompletion && speculation_.enabled &&
          entry.job->task_states[static_cast<size_t>(entry.task)].completed) {
        continue;  // a killed copy
      }
      now_ = entry.time;
      switch (entry.kind) {
        case Kind::kCompletion:
          Complete(*entry.job, entry.task, entry.slot);
          break;
        case Kind::kPoll:
          entry.job->poll_scheduled = false;
          Fill();
          break;
        case Kind::kArrival:
          return true;
      }
    }
    return false;
  }

 private:
  struct Job {
    const QueryRealization& realization;
    double submit_time;
    Rng clone_rng;
    int tasks;
    std::vector<double> completion_times;  // by task, from Complete
    int next_pending = 0;  // lowest task not yet launched
    // Speculation state, kept only with speculation on: a loaded run holds
    // every job until it ends, so per-task records would add up.
    std::vector<TaskState> task_states;
    int oldest = 0;  // lowest task that may still be cloned
    int clones = 0;
    bool poll_scheduled = false;
    // Durations of the completed tasks, sorted ascending; the threshold is
    // their median.
    std::vector<double> completed_durations;
  };

  enum class Kind : uint8_t { kCompletion, kPoll, kArrival };
  struct Entry {
    double time;
    uint64_t seq;
    Job* job;  // null for an arrival
    int task;
    int slot;
    Kind kind;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  void Push(double time, Kind kind, Job* job, int task, int slot) {
    CEDAR_CHECK(time >= now_) << "scheduling into the past: " << time << " < " << now_;
    CEDAR_CHECK(IsFiniteTime(time)) << "scheduling at non-finite time";
    heap_.push_back(Entry{time, pushed_++, job, task, slot, kind});
    std::push_heap(heap_.begin(), heap_.end(), Later());
  }

  // Launches waiting tasks on idle slots in FIFO order, then clones
  // stragglers while slots stay idle.
  void Fill() {
    while (!idle_slots_.empty() && !waiting_.empty()) {
      Job& job = *waiting_.front();
      const int task = job.next_pending++;
      if (job.next_pending == job.tasks) {
        waiting_.pop_front();
      }
      stats_.queue_delay_sum += now_ - job.submit_time;
      Launch(job, task, job.realization.stage_durations[0][static_cast<size_t>(task)]);
    }
    if (speculation_.enabled) {
      for (Job& job : jobs_) {
        while (TrySpeculate(job)) {
        }
      }
    }
  }

  void Launch(Job& job, int task_index, double service_duration) {
    const int slot = idle_slots_.Pop();
    const double duration = service_duration * cluster_.SlotSpeedFactor(slot);
    ++stats_.tasks_launched;
    stats_.busy_time += duration;
    Push(now_ + duration, Kind::kCompletion, &job, task_index, slot);
    if (speculation_.enabled) {
      TaskState& task = job.task_states[static_cast<size_t>(task_index)];
      if (task.copies_in_flight == 0) {
        task.first_launch_time = now_;
      }
      const int copy = task.copies_in_flight++;
      task.durations[copy] = duration;
      task.slots[copy] = slot;
    }
  }

  // The first copy of a task to finish wins, and the other one is killed:
  // its slot goes idle now, and Run drops its completion.
  void Complete(Job& job, int task_index, int slot) {
    idle_slots_.Push(slot);
    if (speculation_.enabled) {
      TaskState& task = job.task_states[static_cast<size_t>(task_index)];
      task.completed = true;
      // Two copies in flight sit on two different slots.
      const int copy = task.slots[0] == slot ? 0 : 1;
      stats_.clones_won += copy;
      auto& sorted = job.completed_durations;
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), task.durations[copy]),
                    task.durations[copy]);
      if (task.copies_in_flight == 2) {
        idle_slots_.Push(task.slots[1 - copy]);
      }
      task.copies_in_flight = 0;
    }
    job.completion_times[static_cast<size_t>(task_index)] = now_;
    stats_.makespan = now_;
    Fill();
  }

  // Clones |job|'s longest-running un-cloned task onto an idle slot once it
  // has run kSlowdownThreshold times the median completed duration.
  bool TrySpeculate(Job& job) {
    if (idle_slots_.empty() || job.clones >= speculation_.max_clones ||
        job.completed_durations.empty()) {
      return false;
    }
    const double median = job.completed_durations[job.completed_durations.size() / 2];
    // Originals launch in index order at non-decreasing times, and a task
    // that is cloned or completes never becomes a candidate again. So the
    // lowest running, un-cloned index has the earliest launch, hence the
    // longest elapsed time (first among equals), and |oldest| only moves
    // forward.
    while (job.oldest < job.next_pending &&
           (job.task_states[static_cast<size_t>(job.oldest)].completed ||
            job.task_states[static_cast<size_t>(job.oldest)].copies_in_flight != 1)) {
      ++job.oldest;
    }
    if (job.oldest == job.next_pending) {
      return false;
    }
    const double launched_at = job.task_states[static_cast<size_t>(job.oldest)].first_launch_time;
    const double longest = now_ - launched_at;
    if (longest <= 0.0) {
      return false;
    }
    const double threshold = kSlowdownThreshold * median;
    if (longest < threshold) {
      // Not slow enough yet. A straggler crosses the threshold without any
      // completion firing, so poll again when the current longest-runner
      // would qualify. launched_at + threshold may round down to a time
      // where it still falls short, and past 2^24 so does now + 1e-9: the
      // next representable time keeps the poll moving.
      if (!job.poll_scheduled) {
        job.poll_scheduled = true;
        Push(std::max({std::nextafter(now_, std::numeric_limits<double>::infinity()),
                       now_ + 1e-9, launched_at + threshold}),
             Kind::kPoll, &job, 0, 0);
      }
      return false;
    }
    ++job.clones;
    ++stats_.clones_launched;
    Launch(job, job.oldest, job.realization.truth.stage_durations[0]->Sample(job.clone_rng));
    return true;
  }

  const ClusterSpec cluster_;
  const SpeculationOptions speculation_;
  std::vector<Entry> heap_;
  uint64_t pushed_ = 0;
  double now_ = 0.0;
  ShuffledSlotStack idle_slots_;
  std::deque<Job> jobs_;
  std::deque<Job*> waiting_;  // jobs with unlaunched tasks, in submission order
  Stats stats_;
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
    : cluster_(cluster), options_(options), model_(std::move(offline_tree), deadline, options) {}

void ClusterRuntime::RunQuery(std::span<const WaitPolicy* const> policies,
                              const QueryRealization& realization,
                              std::span<ClusterQueryResult> results) const {
  CEDAR_CHECK_EQ(policies.size(), results.size());
  // Slot placement and clone durations are runtime randomness, seeded per
  // query for reproducibility.
  const uint64_t seed =
      options_.runtime_seed ^ (realization.truth.sequence * 0x9E3779B97F4A7C15ull);
  SlotScheduler scheduler(cluster_, seed ^ 0xBEEF, options_.speculation);
  const std::vector<double>& leaf_times = scheduler.Submit(realization, Rng(seed ^ 0xC0FFEE));
  {
    // One record per query, whatever the policies; no policy decision nests
    // in it.
    CEDAR_PROFILE_SCOPE("cluster.slot_dispatch");
    scheduler.Run();
  }
  const LeafOrder order(leaf_times, offline_tree().stage(0).fanout);

  ClusterQueryResult slots;
  const auto total_tasks = static_cast<long long>(leaf_times.size());
  const int total_slots = cluster_.TotalSlots();
  slots.waves = static_cast<int>((total_tasks + total_slots - 1) / total_slots);
  const SlotScheduler::Stats& stats = scheduler.stats();
  slots.makespan = stats.makespan;
  slots.tasks_launched = stats.tasks_launched;
  slots.clones_launched = stats.clones_launched;
  slots.clones_won = stats.clones_won;

  for (size_t p = 0; p < policies.size(); ++p) {
    QueryTree tree(model_, *policies[p], realization, "cluster");
    const FixedTimeRun run = tree.RunFixedTimeLeaves(order);
    ClusterQueryResult& result = results[p];
    result = slots;
    static_cast<QueryResult&>(result) = run.result;
    // The scheduler's entries hold the leaf completions the tree run counts
    // as its leaves too.
    result.events = static_cast<long long>(scheduler.pushed()) + run.result.events - total_tasks;

    if (QueryTraceBuilder* trace = tree.trace()) {
      trace->Finish(
          std::max(result.makespan, deadline()), result.quality,
          {TraceArg::Num("waves", result.waves),
           TraceArg::Num("tasks_launched", static_cast<double>(result.tasks_launched)),
           TraceArg::Num("clones_launched", static_cast<double>(result.clones_launched)),
           TraceArg::Num("clones_won", static_cast<double>(result.clones_won)),
           TraceArg::Num("root_late", static_cast<double>(result.root_arrivals_late))});
    }
  }
}

ClusterQueryResult ClusterRuntime::RunQuery(const WaitPolicy& policy_prototype,
                                            const QueryRealization& realization) const {
  const WaitPolicy* const policies[] = {&policy_prototype};
  ClusterQueryResult result;
  RunQuery(policies, realization, std::span<ClusterQueryResult>(&result, 1));
  return result;
}

std::vector<LoadedRunResult> RunLoadedCluster(const Workload& workload,
                                              std::span<const WaitPolicy* const> policies,
                                              const LoadedRunConfig& config) {
  CEDAR_CHECK(std::isfinite(config.deadline) && config.deadline > 0.0)
      << "deadline " << config.deadline << " must be finite and > 0";
  CEDAR_CHECK(std::isfinite(config.mean_interarrival) && config.mean_interarrival > 0.0)
      << "LoadedRunConfig::mean_interarrival " << config.mean_interarrival
      << " must be finite and > 0";
  CEDAR_CHECK_GT(config.num_queries, 0);
  CEDAR_CHECK(!policies.empty());

  const QueryTreeModel model(workload.OfflineTree(), config.deadline, config);
  // Placement draws from a stream of its own, so the arrival stream below
  // is the same on every cluster.
  SlotScheduler scheduler(config.cluster, DeriveStreamSeed(config.seed, 0xBEEF),
                          SpeculationOptions{});
  Rng rng(config.seed);
  // A deque keeps each query's realization at a stable address.
  std::deque<QueryRealization> realizations;
  std::vector<double> arrival_times;
  std::vector<const std::vector<double>*> leaf_times;  // per query, from Submit

  // Poisson arrivals. Each arrival draws its query, then the gap to the
  // next one, so the next arrival is pushed after the query's first
  // completions.
  const auto schedule_arrival = [&] {
    const double gap = -std::log(rng.NextOpenDouble()) * config.mean_interarrival;
    scheduler.ScheduleArrival(scheduler.now() + gap);
  };
  {
    // One record per run, whatever the policies; it includes the queries'
    // draws and no tree.
    CEDAR_PROFILE_SCOPE("cluster.slot_dispatch");
    schedule_arrival();
    for (long long arrivals = 0; scheduler.Run(); ++arrivals) {
      QueryTruth truth = workload.DrawQuery(rng);
      truth.sequence = DriverQuerySequence(config.seed, arrivals);
      Rng realization_rng = rng.Fork();
      const QueryRealization& realization = realizations.emplace_back(
          SampleRealization(model.offline_tree(), truth, realization_rng));
      arrival_times.push_back(scheduler.now());
      leaf_times.push_back(&scheduler.Submit(realization, realization_rng));
      if (arrivals + 1 < config.num_queries) {
        schedule_arrival();
      }
    }
  }
  // Each query's tier-0 leaf order, sorted once for every policy.
  std::vector<LeafOrder> orders;
  orders.reserve(leaf_times.size());
  for (const std::vector<double>* times : leaf_times) {
    orders.emplace_back(*times, model.offline_tree().stage(0).fanout);
  }

  LoadedRunResult slots;
  const SlotScheduler::Stats& stats = scheduler.stats();
  const auto originals = static_cast<double>(stats.tasks_launched);  // speculation is off
  slots.makespan = stats.makespan;
  slots.mean_queue_delay = originals > 0.0 ? stats.queue_delay_sum / originals : 0.0;
  slots.utilization =
      slots.makespan > 0.0
          ? stats.busy_time / (slots.makespan * static_cast<double>(config.cluster.TotalSlots()))
          : 0.0;

  // Aggregators hold no slots, so each query's tree runs from its leaves'
  // completion times once every task has run. Policy by policy, every
  // query's tree is built, each with its own memo, and then run, both in
  // arrival order; a tree is released once it has run.
  std::vector<LoadedRunResult> results(policies.size(), slots);
  for (size_t p = 0; p < policies.size(); ++p) {
    std::deque<QueryTree> trees;
    for (size_t q = 0; q < realizations.size(); ++q) {
      trees.emplace_back(model, *policies[p], realizations[q], "loaded", arrival_times[q]);
    }
    LoadedRunResult& result = results[p];
    for (const LeafOrder& order : orders) {
      QueryTree& tree = trees.front();
      const QueryResult query = tree.RunFixedTimeLeaves(order).result;
      result.per_query_quality.Add(query.quality);
      result.root_arrivals_in_time += query.root_arrivals_in_time;
      result.root_arrivals_late += query.root_arrivals_late;
      if (QueryTraceBuilder* trace = tree.trace()) {
        trace->Finish(config.deadline, query.quality, {TraceArg::Num("arrival", tree.origin())});
      }
      trees.pop_front();
    }
  }
  return results;
}

LoadedRunResult RunLoadedCluster(const Workload& workload, const WaitPolicy& policy,
                                 const LoadedRunConfig& config) {
  const WaitPolicy* const policies[] = {&policy};
  return std::move(RunLoadedCluster(workload, policies, config).front());
}

}  // namespace cedar
