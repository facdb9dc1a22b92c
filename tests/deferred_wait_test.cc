// Deferred wait decisions against eager ones, on all three engines.
//
// AggregatorNode asks its policy through DecideOnArrivalDeferrable, so
// online Cedar may arm a timer at a lower bound and finish its wait search
// only when that timer fires. Wrapped in EagerPolicy, which forwards only
// DecideOnArrival, the same Cedar decides every arrival in full. Each
// configuration runs both ways and must report the same results bit for
// bit; traced, both ways must write the same trace events, which hold every
// aggregator's send time and every wait update. A deferred run arms the
// same events traced and untraced, so its untraced send times are the
// traced ones.
//
// A deferred decision always re-arms the timer, where the eager run keeps a
// timer whose wait did not change. So QueryResult::events may differ, and
// events at exactly the same time (sibling timers on one grid point) may
// run in another order: the traces are compared as sets of events.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_runtime.h"
#include "src/cluster/loaded_runtime.h"
#include "src/core/policies.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

// Forwards only the eager entry points: a node driving it never defers.
class EagerPolicy final : public WaitPolicy {
 public:
  explicit EagerPolicy(std::unique_ptr<WaitPolicy> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<EagerPolicy>(inner_->Clone());
  }
  void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) override {
    WaitPolicy::BeginQuery(ctx, truth);
    inner_->BeginQuery(ctx, truth);
  }

 protected:
  double InitialWait(const AggregatorContext& ctx) override {
    return inner_->DecideInitialWait(ctx);
  }
  double OnArrival(const AggregatorContext& ctx, double arrival_time,
                   const std::vector<double>& arrivals) override {
    return inner_->DecideOnArrival(ctx, arrival_time, arrivals);
  }

 private:
  std::unique_ptr<WaitPolicy> inner_;
};

struct Config {
  std::string name;
  MetaLogNormalWorkload workload;
  double deadline;
  CedarPolicyOptions cedar;
  int grid_steps = 400;
};

// Leaf durations with sigma -> 0: every leaf of a query reports at the same
// time, so sibling aggregators decide alike and their timers share grid
// points, and the learner's fit is the floored scale of a point mass.
MetaLogNormalWorkload TiedLeavesWorkload() {
  std::vector<MetaLogNormalStage> stages = MakeFacebookWorkload(8, 4).stages();
  stages[0].sigma = 1e-300;
  stages[0].sigma_spread = 0.0;
  stages[0].min_sigma = 1e-300;
  return MetaLogNormalWorkload("tied-leaves", "s", std::move(stages));
}

std::vector<Config> Configs() {
  auto with = [](DistributionFamily family, bool empirical, int reoptimize_every) {
    CedarPolicyOptions options;
    options.learner.family = family;
    options.learner.use_empirical_estimates = empirical;
    options.reoptimize_every = reoptimize_every;
    return options;
  };
  const CedarPolicyOptions log_normal = with(DistributionFamily::kLogNormal, false, 1);
  std::vector<Config> configs = {
      {"log-normal", MakeFacebookWorkload(8, 4), 700.0, log_normal},
      {"normal", MakeFacebookWorkload(8, 4), 700.0, with(DistributionFamily::kNormal, false, 1)},
      {"exponential", MakeFacebookWorkload(8, 4), 700.0,
       with(DistributionFamily::kExponential, false, 1)},
      {"cedar-empirical", MakeFacebookWorkload(8, 4), 700.0,
       with(DistributionFamily::kLogNormal, true, 1)},
      {"reoptimize every 3", MakeFacebookWorkload(8, 4), 700.0,
       with(DistributionFamily::kLogNormal, false, 3)},
      {"fanout 1", MakeFacebookWorkload(1, 4), 700.0, log_normal},
      {"fanout 2", MakeFacebookWorkload(2, 4), 700.0, log_normal},
      {"three levels", MakeFacebookThreeLevelWorkload(5, 3, 3), 900.0, log_normal},
      {"interactive", MakeInteractiveWorkload(16, 4), 155.0, log_normal},
      // Every arrival comes after the whole grid.
      {"deadline below the children", MakeFacebookWorkload(8, 4), 2.0, log_normal},
      {"tied leaves", TiedLeavesWorkload(), 700.0, log_normal},
  };
  // More warm-up samples asked for than a tier-0 aggregator has children:
  // BeginQuery lowers the count to two-thirds of the fanout.
  CedarPolicyOptions above_fanout = log_normal;
  above_fanout.learner.min_samples = 9;
  configs.push_back({"min_samples above the fanout", MakeFacebookWorkload(8, 4), 700.0,
                     above_fanout});
  // The coarsest grid an engine builds: epsilon is the deadline, so every
  // upper tier's budget is below epsilon.
  configs.push_back({"one-step grid", MakeFacebookWorkload(8, 4), 700.0, log_normal, 1});
  configs.push_back({"one-step grid, three levels", MakeFacebookThreeLevelWorkload(5, 3, 3), 900.0,
                     log_normal, 1});
  // On coarse grids sibling timers often fire at the same time, and the
  // search often stops at a bound equal to the wait.
  for (int steps : {12, 16, 24, 32}) {
    configs.push_back({std::to_string(steps) + "-step grid", MakeFacebookWorkload(8, 4), 700.0,
                       log_normal, steps});
    configs.push_back({std::to_string(steps) + "-step interactive grid",
                       MakeInteractiveWorkload(16, 4), 155.0, log_normal, steps});
  }
  return configs;
}

std::vector<QueryRealization> Realizations(const Workload& workload, int count, uint64_t seed) {
  TreeSpec tree = workload.OfflineTree();
  Rng rng(seed);
  std::vector<QueryRealization> realizations;
  for (int q = 0; q < count; ++q) {
    QueryTruth truth = workload.DrawQuery(rng);
    truth.sequence = static_cast<uint64_t>(q + 1);
    Rng realization_rng = rng.Fork();
    realizations.push_back(SampleRealization(tree, truth, realization_rng));
  }
  return realizations;
}

// The bit patterns of everything a QueryResult reports but its event count.
std::vector<uint64_t> Bits(const QueryResult& r) {
  return {std::bit_cast<uint64_t>(r.quality),
          std::bit_cast<uint64_t>(r.included_weight),
          std::bit_cast<uint64_t>(r.total_weight),
          static_cast<uint64_t>(r.root_arrivals_in_time),
          static_cast<uint64_t>(r.root_arrivals_late),
          std::bit_cast<uint64_t>(r.mean_tier0_send_time)};
}

std::vector<uint64_t> Bits(const ClusterQueryResult& r) {
  std::vector<uint64_t> bits = Bits(static_cast<const QueryResult&>(r));
  for (uint64_t more : {static_cast<uint64_t>(r.waves), std::bit_cast<uint64_t>(r.makespan),
                        static_cast<uint64_t>(r.tasks_launched),
                        static_cast<uint64_t>(r.clones_launched),
                        static_cast<uint64_t>(r.clones_won)}) {
    bits.push_back(more);
  }
  return bits;
}

std::vector<uint64_t> Bits(const LoadedRunResult& r) {
  std::vector<uint64_t> bits;
  for (double quality : r.per_query_quality.values()) {
    bits.push_back(std::bit_cast<uint64_t>(quality));
  }
  for (uint64_t more :
       {std::bit_cast<uint64_t>(r.mean_queue_delay), std::bit_cast<uint64_t>(r.utilization),
        std::bit_cast<uint64_t>(r.makespan), static_cast<uint64_t>(r.root_arrivals_in_time),
        static_cast<uint64_t>(r.root_arrivals_late)}) {
    bits.push_back(more);
  }
  return bits;
}

// One engine run of one policy: untraced, the results' bits and the event
// counts; traced, the Chrome JSON's events.
struct Run {
  std::vector<uint64_t> bits;
  std::vector<long long> events;
  std::vector<std::string> trace;
};

// Runs |run_all| untraced and traced under |policy|. The traced run must
// arm the same events as the untraced one.
template <typename RunAll>
Run RunBoth(const WaitPolicy& policy, RunAll run_all, const std::string& where) {
  Run run;
  run_all(policy, run.bits, run.events);
  TraceCollector collector;
  SetActiveTraceCollector(&collector);
  std::vector<uint64_t> traced_bits;
  std::vector<long long> traced_events;
  run_all(policy, traced_bits, traced_events);
  SetActiveTraceCollector(nullptr);
  EXPECT_EQ(traced_bits, run.bits) << where << ": a trace changed the results";
  EXPECT_EQ(traced_events, run.events) << where << ": a trace changed the armed events";
  // One trace event per line. Sorted, so events at equal times compare
  // whatever their order (see the top of this file).
  std::ostringstream out;
  collector.WriteChromeJson(out);
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.back() == ',') {
      line.pop_back();
    }
    run.trace.push_back(line);
  }
  std::sort(run.trace.begin(), run.trace.end());
  return run;
}

template <typename RunAll>
void ExpectDeferredMatchesEager(const Config& config, const std::string& engine,
                                bool per_query_upper_knowledge, RunAll run_all) {
  const std::string where = config.name + ", " + engine + ", upper knowledge " +
                            (per_query_upper_knowledge ? "per query" : "offline");
  const CedarPolicy cedar(config.cedar);
  const EagerPolicy eager(cedar.Clone());
  const Run deferred = RunBoth(cedar, run_all, where);
  const Run want = RunBoth(eager, run_all, where);
  EXPECT_EQ(deferred.bits, want.bits) << where;
  EXPECT_EQ(deferred.trace, want.trace) << where;
  EXPECT_FALSE(want.bits.empty()) << where;
}

long long CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).Value();
}

class DeferredWaitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    deferred_before_ = CounterValue("policy.decisions_deferred");
    resolved_before_ = CounterValue("policy.decisions_resolved");
  }
  void TearDown() override {
    // Not vacuous: decisions were deferred, and some of them resolved.
    EXPECT_GT(CounterValue("policy.decisions_deferred"), deferred_before_ + 100);
    EXPECT_GT(CounterValue("policy.decisions_resolved"), resolved_before_ + 10);
    SetMetricsEnabled(false);
  }

 private:
  long long deferred_before_ = 0;
  long long resolved_before_ = 0;
};

TEST_F(DeferredWaitTest, TreeSimulation) {
  for (const Config& config : Configs()) {
    for (bool per_query : {true, false}) {
      TreeSimulationOptions options;
      options.per_query_upper_knowledge = per_query;
      options.grid.steps = config.grid_steps;
      const TreeSimulation sim(config.workload.OfflineTree(), config.deadline, options);
      const std::vector<QueryRealization> realizations = Realizations(config.workload, 6, 11);
      ExpectDeferredMatchesEager(
          config, "sim", per_query,
          [&](const WaitPolicy& policy, std::vector<uint64_t>& bits,
              std::vector<long long>& events) {
            for (const QueryRealization& realization : realizations) {
              const QueryResult r = sim.RunQuery(policy, realization);
              const std::vector<uint64_t> more = Bits(r);
              bits.insert(bits.end(), more.begin(), more.end());
              events.push_back(r.events);
            }
          });
    }
  }
}

TEST_F(DeferredWaitTest, ClusterRuntime) {
  for (const Config& config : Configs()) {
    for (bool per_query : {true, false}) {
      // Fewer slots than tasks, one slow machine in three, speculation.
      ClusterSpec cluster;
      cluster.machines = 3;
      cluster.slots_per_machine = 4;
      cluster.slow_machine_fraction = 0.34;
      cluster.slow_machine_factor = 3.0;
      ClusterRunOptions options;
      options.per_query_upper_knowledge = per_query;
      options.grid.steps = config.grid_steps;
      options.speculation.enabled = true;
      options.speculation.max_clones = 4;
      options.runtime_seed = 5;
      const ClusterRuntime runtime(cluster, config.workload.OfflineTree(), 2.0 * config.deadline,
                                   options);
      const std::vector<QueryRealization> realizations = Realizations(config.workload, 6, 13);
      ExpectDeferredMatchesEager(
          config, "cluster", per_query,
          [&](const WaitPolicy& policy, std::vector<uint64_t>& bits,
              std::vector<long long>& events) {
            for (const QueryRealization& realization : realizations) {
              const ClusterQueryResult r = runtime.RunQuery(policy, realization);
              const std::vector<uint64_t> more = Bits(r);
              bits.insert(bits.end(), more.begin(), more.end());
              events.push_back(r.events);
            }
          });
    }
  }
}

TEST_F(DeferredWaitTest, LoadedCluster) {
  for (const Config& config : Configs()) {
    for (bool per_query : {true, false}) {
      // Queries arrive faster than they drain, so tasks queue across them.
      LoadedRunConfig loaded;
      loaded.cluster.machines = 4;
      loaded.cluster.slots_per_machine = 4;
      loaded.deadline = 2.0 * config.deadline;
      loaded.mean_interarrival = config.deadline;
      loaded.num_queries = 8;
      loaded.seed = 17;
      loaded.per_query_upper_knowledge = per_query;
      loaded.grid.steps = config.grid_steps;
      ExpectDeferredMatchesEager(
          config, "loaded", per_query,
          [&](const WaitPolicy& policy, std::vector<uint64_t>& bits,
              std::vector<long long>& events) {
            bits = Bits(RunLoadedCluster(config.workload, policy, loaded));
            events.push_back(0);  // a loaded run reports no event count
          });
    }
  }
}

}  // namespace
}  // namespace cedar
