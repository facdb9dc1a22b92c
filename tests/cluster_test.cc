#include "src/cluster/cluster_runtime.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/experiment.h"
#include "src/cluster/loaded_runtime.h"
#include "src/cluster/slot_stack.h"
#include "src/core/policies.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/tree_simulation.h"
#include "src/stats/distribution.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

TreeSpec SmallTree(int k1 = 4, int k2 = 3) {
  return TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(2.0, 0.8), k1,
                            std::make_shared<LogNormalDistribution>(2.0, 0.5), k2);
}

QueryTruth TruthOf(const TreeSpec& tree, uint64_t sequence = 1) {
  QueryTruth truth;
  truth.sequence = sequence;
  for (const auto& stage : tree.stages()) {
    truth.stage_durations.push_back(stage.duration);
  }
  return truth;
}

ClusterSpec TinyCluster(int machines, int slots) {
  ClusterSpec cluster;
  cluster.machines = machines;
  cluster.slots_per_machine = slots;
  return cluster;
}

// A run's trace records, the query span aside, one string each: name, the
// bits of the time less |origin|, and the args.
std::vector<std::string> TraceRecords(const TraceCollector& collector, double origin) {
  std::vector<std::string> records;
  for (const TraceEvent& event : collector.Snapshot()) {
    if (event.phase == 'X') {
      continue;  // the engine's query span carries its own diagnostics
    }
    std::ostringstream record;
    record << event.name << " ts-bits=" << std::bit_cast<uint64_t>(event.ts - origin);
    for (const TraceArg& arg : event.args) {
      record << ' ' << arg.key << '=' << arg.value;
    }
    records.push_back(record.str());
  }
  return records;
}

TEST(ClusterRuntimeTest, SingleWaveMatchesTreeSimulation) {
  // A differential test of the three engines. With a slot per task, no
  // slow machine and no speculation nothing queues: every engine completes
  // leaf i at its sampled duration and runs the same tree from those times,
  // so ClusterRuntime and a one-query RunLoadedCluster must match
  // TreeSimulation's run bit for bit, its trace included, and
  // ClusterRuntime must count the events TreeSimulation counts. The
  // loaded query arrives at ~1e-300, which vanishes in every time it
  // shifts, so its times are the others' too.
  struct Shape {
    const char* name;
    MetaLogNormalWorkload workload;
    double deadline;
  };
  const Shape shapes[] = {{"2-level", MakeFacebookWorkload(6, 5), 700.0},
                          {"3-level", MakeFacebookThreeLevelWorkload(4, 3, 3), 900.0}};
  std::vector<std::unique_ptr<WaitPolicy>> policies;
  policies.push_back(std::make_unique<ProportionalSplitPolicy>());
  policies.push_back(std::make_unique<CedarPolicy>());
  policies.push_back(std::make_unique<OraclePolicy>());
  policies.push_back(std::make_unique<OfflineOptimalPolicy>());
  constexpr uint64_t kSeeds = 20;
  long long late = 0;
  long long partial = 0;  // queries whose quality is below 1
  for (const Shape& shape : shapes) {
    const TreeSpec tree = shape.workload.OfflineTree();
    const ClusterSpec one_slot_per_task = TinyCluster(static_cast<int>(StageEdgeCount(tree, 0)), 1);
    const TreeSimulation sim(tree, shape.deadline);
    const ClusterRuntime cluster(one_slot_per_task, tree, shape.deadline);
    LoadedRunConfig loaded;
    loaded.cluster = one_slot_per_task;
    loaded.deadline = shape.deadline;
    loaded.mean_interarrival = 1e-300;
    loaded.num_queries = 1;
    for (const auto& policy : policies) {
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(std::string(shape.name) + ", " + policy->name() + ", seed " +
                     std::to_string(seed));
        // The loaded run's one query: its arrival gap, then its draws.
        loaded.seed = seed;
        Rng rng(seed);
        const double origin = -std::log(rng.NextOpenDouble()) * loaded.mean_interarrival;
        QueryTruth truth = shape.workload.DrawQuery(rng);
        truth.sequence = DriverQuerySequence(seed, 0);
        Rng realization_rng = rng.Fork();
        const QueryRealization realization = SampleRealization(tree, truth, realization_rng);

        TraceCollector sim_trace;
        TraceCollector cluster_trace;
        TraceCollector loaded_trace;
        SetActiveTraceCollector(&sim_trace);
        const QueryResult expected = sim.RunQuery(*policy, realization);
        SetActiveTraceCollector(&cluster_trace);
        const ClusterQueryResult actual = cluster.RunQuery(*policy, realization);
        SetActiveTraceCollector(&loaded_trace);
        const LoadedRunResult one_query = RunLoadedCluster(shape.workload, *policy, loaded);
        SetActiveTraceCollector(nullptr);

        const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
        EXPECT_EQ(bits(actual.quality), bits(expected.quality));
        EXPECT_EQ(bits(actual.included_weight), bits(expected.included_weight));
        EXPECT_EQ(bits(actual.total_weight), bits(expected.total_weight));
        EXPECT_EQ(actual.root_arrivals_in_time, expected.root_arrivals_in_time);
        EXPECT_EQ(actual.root_arrivals_late, expected.root_arrivals_late);
        EXPECT_EQ(bits(actual.mean_tier0_send_time), bits(expected.mean_tier0_send_time));
        EXPECT_EQ(actual.events, expected.events);
        ASSERT_EQ(one_query.per_query_quality.size(), 1u);
        EXPECT_EQ(bits(one_query.per_query_quality.values()[0]), bits(expected.quality));
        EXPECT_EQ(one_query.root_arrivals_in_time, expected.root_arrivals_in_time);
        EXPECT_EQ(one_query.root_arrivals_late, expected.root_arrivals_late);

        const std::vector<std::string> records = TraceRecords(sim_trace, 0.0);
        EXPECT_FALSE(records.empty());
        EXPECT_EQ(TraceRecords(cluster_trace, 0.0), records);
        EXPECT_EQ(TraceRecords(loaded_trace, origin), records);
        late += expected.root_arrivals_late;
        partial += expected.quality < 1.0 ? 1 : 0;
      }
    }
  }
  // The deadlines leave both outcomes common.
  EXPECT_GT(late, 0);
  EXPECT_GT(partial, 0);
}

// On its first arrival, re-arms the timer at |wait|; every later decision
// keeps it.
class ReArmOncePolicy final : public WaitPolicy {
 public:
  ReArmOncePolicy(double initial, double wait) : initial_(initial), wait_(wait) {}

  std::string name() const override { return "re-arm-once"; }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<ReArmOncePolicy>(*this);
  }

 protected:
  double InitialWait(const AggregatorContext&) override { return initial_; }
  double OnArrival(const AggregatorContext&, double, const std::vector<double>& arrivals) override {
    return arrivals.size() == 1 ? wait_ : current_wait_;
  }

 private:
  double initial_;
  double wait_;
};

TEST(ClusterRuntimeTest, ASecondWaveLeafRunsBeforeATimerTiedWithIt) {
  // One slot, 2 x 1 leaves: leaf 1 launches when leaf 0 completes at 1.25
  // and completes at 3.75, exactly when the timer that leaf 0's arrival
  // re-armed fires. A leaf is Pre(index) on every engine and a re-armed
  // timer Fresh (DESIGN.md §4, "Aggregator loop"), so the leaf runs first
  // and the aggregator sends both outputs, as TreeSimulation's rule gives.
  const TreeSpec tree = TreeSpec::TwoLevel(std::make_shared<ExponentialDistribution>(1.0), 2,
                                           std::make_shared<ExponentialDistribution>(1.0), 1);
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.stage_durations = {{1.25, 2.5}, {1.0}};
  const ClusterRuntime cluster(TinyCluster(1, 1), tree, 100.0);
  const ReArmOncePolicy policy(50.0, 1.25 + 2.5);
  const ClusterQueryResult result = cluster.RunQuery(policy, realization);
  EXPECT_EQ(result.waves, 2);
  EXPECT_EQ(result.quality, 1.0);
  EXPECT_EQ(result.mean_tier0_send_time, 3.75);
  EXPECT_EQ(result.events, 4) << "two leaves, the initial timer and one re-arm";
}

int64_t ProfileCalls(const std::string& name) {
  for (const ProfileSample& sample : CollectProfileSamples()) {
    if (sample.name == name) {
      return sample.calls;
    }
  }
  return 0;
}

TEST(ClusterRuntimeTest, SlotDispatchAndPseudocode1ProfileApart) {
  // A query's slot dispatch runs once, and its tree once after it per
  // policy: one cluster.slot_dispatch record per query and one
  // sim.fixed_time_run record per (query, policy); a loaded run is one
  // dispatch record for all its queries and policies, however many times
  // its arrivals hand control back.
  auto workload = MakeFacebookWorkload(10, 8);
  const TreeSpec tree = workload.OfflineTree();
  const ClusterRuntime cluster(TinyCluster(4, 5), tree, 1000.0);  // 4 waves
  Rng rng(3);
  const QueryRealization realization = SampleRealization(tree, TruthOf(tree), rng);
  CedarPolicy cedar;
  ResetProfile();
  SetProfilingEnabled(true);
  cluster.RunQuery(cedar, realization);
  EXPECT_EQ(ProfileCalls("cluster.slot_dispatch"), 1);
  EXPECT_EQ(ProfileCalls("sim.fixed_time_run"), 1);
  ResetProfile();
  LoadedRunConfig config;
  config.cluster = TinyCluster(10, 4);
  config.deadline = 1000.0;
  config.mean_interarrival = 100.0;
  config.num_queries = 7;
  RunLoadedCluster(workload, cedar, config);
  EXPECT_EQ(ProfileCalls("cluster.slot_dispatch"), 1);
  EXPECT_EQ(ProfileCalls("sim.fixed_time_run"), config.num_queries);

  // The schedule is shared by every policy: a query's slots are dispatched
  // once, and each policy's tree runs over them.
  ProportionalSplitPolicy prop_split;
  FixedWaitPolicy fixed(500.0);
  ResetProfile();
  ClusterExperimentConfig experiment;
  experiment.cluster = TinyCluster(4, 5);
  experiment.deadline = 1000.0;
  experiment.num_queries = 6;
  experiment.threads = 1;
  RunClusterExperiment(workload, {&prop_split, &cedar, &fixed}, experiment);
  EXPECT_EQ(ProfileCalls("cluster.slot_dispatch"), experiment.num_queries);
  EXPECT_EQ(ProfileCalls("sim.fixed_time_run"), 3 * experiment.num_queries);
  ResetProfile();
  const WaitPolicy* const two[] = {&prop_split, &cedar};
  RunLoadedCluster(workload, two, config);
  EXPECT_EQ(ProfileCalls("cluster.slot_dispatch"), 1);
  EXPECT_EQ(ProfileCalls("sim.fixed_time_run"), 2 * config.num_queries);
  SetProfilingEnabled(false);
  ResetProfile();
}

TEST(ClusterRuntimeTest, WaveCountReported) {
  TreeSpec tree = SmallTree(10, 4);  // 40 tasks
  ClusterRuntime cluster(TinyCluster(2, 5), tree, 200.0);  // 10 slots
  Rng rng(5);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  FixedWaitPolicy policy(150.0);
  ClusterQueryResult result = cluster.RunQuery(policy, realization);
  EXPECT_EQ(result.waves, 4);
  EXPECT_EQ(result.tasks_launched, 40);
}

TEST(ClusterRuntimeTest, QueueingDelaysArrivals) {
  // Same realization on an ample vs a tiny cluster: the tiny cluster's
  // makespan must be strictly larger (tasks wait for slots).
  TreeSpec tree = SmallTree(10, 4);
  Rng rng(7);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  FixedWaitPolicy policy(1e5);
  ClusterRuntime ample(TinyCluster(40, 1), tree, 2e5);
  ClusterRuntime tiny(TinyCluster(2, 2), tree, 2e5);
  ClusterQueryResult fast = ample.RunQuery(policy, realization);
  ClusterQueryResult slow = tiny.RunQuery(policy, realization);
  EXPECT_GT(slow.makespan, fast.makespan);
  // Both eventually deliver everything under the huge deadline.
  EXPECT_DOUBLE_EQ(fast.quality, 1.0);
  EXPECT_DOUBLE_EQ(slow.quality, 1.0);
}

TEST(ClusterRuntimeTest, DeterministicReplay) {
  TreeSpec tree = SmallTree(8, 3);
  ClusterRuntime cluster(TinyCluster(3, 3), tree, 80.0);
  Rng rng(11);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  CedarPolicy cedar;
  ClusterQueryResult a = cluster.RunQuery(cedar, realization);
  ClusterQueryResult b = cluster.RunQuery(cedar, realization);
  EXPECT_DOUBLE_EQ(a.quality, b.quality);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks_launched, b.tasks_launched);
}

TEST(ClusterRuntimeTest, SpeculationLaunchesAndAccountsClones) {
  // One monster task; speculation should clone it once slots idle.
  TreeSpec tree = SmallTree(6, 1);
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.stage_durations = {{1.0, 1.0, 1.0, 1.0, 1.0, 500.0}, {1.0}};

  ClusterRunOptions options;
  options.speculation.enabled = true;
  ClusterRuntime cluster(TinyCluster(6, 1), tree, 1000.0, options);
  FixedWaitPolicy policy(900.0);
  ClusterQueryResult result = cluster.RunQuery(policy, realization);
  EXPECT_GE(result.clones_launched, 1);
  // The clone redraws from lognormal(2.0, 0.8) (median ~7.4), so it should
  // beat the 500-unit straggler and the job completes early.
  EXPECT_EQ(result.clones_won, 1);
  EXPECT_LT(result.makespan, 500.0);
  EXPECT_DOUBLE_EQ(result.quality, 1.0);
  // Each launched copy schedules its completion (the loser's is cancelled),
  // and the speculation poll and the aggregator schedule more.
  EXPECT_GT(result.events, result.tasks_launched);
}

TEST(ClusterRuntimeTest, SlotDispatchTieOrderIsPinned) {
  // 4 one-slot machines, the first 4x slow, and 8 x 1 leaves in quarters.
  // Three first-wave tasks tie at 1.0, and the order in which their
  // completions pop decides which slot each of tasks 4-6 takes. Tasks 4 and
  // 5 tie at 1.5; the second finds an idle slot with the slow task at 1.5 of
  // a 2.0 threshold and arms a poll at 2.0. That poll clones the slow task
  // (0.75, on a healthy slot) and arms another for task 6 at 3.0, which
  // fires after task 6 has completed and finds nothing to clone. The clone
  // completes at 2.75 and wins; the killed original's completion at 4.0
  // never fires. The pins were taken from the generic event queue the
  // scheduler's heap replaced, and hold its pop order.
  const TreeSpec tree = SmallTree(8, 1);
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.truth.stage_durations[0] = std::make_shared<EmpiricalDistribution>(
      std::vector<double>{0.75, 0.75});  // every clone runs 0.75
  realization.stage_durations = {{1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.25, 0.25}, {1.0}};
  ClusterSpec spec = TinyCluster(4, 1);
  spec.slow_machine_fraction = 0.25;
  spec.slow_machine_factor = 4.0;
  ClusterRunOptions options;
  options.speculation.enabled = true;
  const ClusterRuntime cluster(spec, tree, 10.0, options);
  const FixedWaitPolicy policy(3.0);
  const ClusterQueryResult result = cluster.RunQuery(policy, realization);
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  EXPECT_EQ(result.waves, 2);
  EXPECT_EQ(result.tasks_launched, 9);
  EXPECT_EQ(result.clones_launched, 1);
  EXPECT_EQ(result.clones_won, 1);
  EXPECT_EQ(result.events, 12) << "9 copies' completions, 2 polls and the tree's timer";
  EXPECT_EQ(bits(result.makespan), bits(2.75));
  EXPECT_EQ(bits(result.quality), bits(1.0));
  EXPECT_EQ(bits(result.mean_tier0_send_time), bits(2.75));
}

TEST(ClusterRuntimeTest, SpeculationPollAdvancesAtLargeTimes) {
  // Two slots. Tasks 0 and 1 run 2^24 each; at 2^24 the straggler (task 2)
  // takes one slot and tasks 3-5 (1, 1, m) run in turn on the other. Once
  // task 5 completes, a slot is idle, the median completed duration is
  // m = 2^20 + 2^-32, and the straggler has run 2^20 + 2 < 2m. The poll's
  // due time 2^24 + 2m rounds down to R = 2^24 + 2^21, where the straggler
  // has run exactly 2^21, still under 2m, and R + 1e-9 rounds back to R: a
  // poll re-armed at max(now + 1e-9, launched_at + 2m) fires at R forever.
  // The next representable time after R crosses the threshold.
  const TreeSpec tree = SmallTree(6, 1);
  const double big = 16777216.0;                            // 2^24
  const double m = 1048576.0 + std::ldexp(1.0, -32);        // 2^20 + 2^-32
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.stage_durations = {{big, big, 4.0 * big, 1.0, 1.0, m}, {1.0}};
  ClusterRunOptions options;
  options.speculation.enabled = true;
  const ClusterRuntime cluster(TinyCluster(1, 2), tree, 1e9, options);
  const FixedWaitPolicy policy(5e8);
  const ClusterQueryResult result = cluster.RunQuery(policy, realization);
  EXPECT_EQ(result.clones_launched, 1);
  EXPECT_EQ(result.clones_won, 1) << "the clone beats a straggler due at 5 x 2^24";
  EXPECT_LT(result.makespan, 5.0 * big);
  EXPECT_DOUBLE_EQ(result.quality, 1.0);
}

TEST(ClusterRuntimeTest, SpeculationDisabledLaunchesNoClones) {
  TreeSpec tree = SmallTree(6, 1);
  QueryRealization realization;
  realization.truth = TruthOf(tree);
  realization.stage_durations = {{1.0, 1.0, 1.0, 1.0, 1.0, 500.0}, {1.0}};
  ClusterRuntime cluster(TinyCluster(6, 1), tree, 1000.0);
  FixedWaitPolicy policy(900.0);
  ClusterQueryResult result = cluster.RunQuery(policy, realization);
  EXPECT_EQ(result.clones_launched, 0);
  EXPECT_GE(result.makespan, 500.0);
}

TEST(ClusterRuntimeTest, SlowMachinesStretchTasks) {
  // All machines slow by 3x: with a fixed wait shorter than the stretched
  // durations, fewer outputs are collected than on a healthy cluster.
  TreeSpec tree = SmallTree(10, 4);
  Rng rng(21);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  FixedWaitPolicy policy(30.0);

  ClusterSpec healthy = TinyCluster(10, 4);
  ClusterSpec degraded = TinyCluster(10, 4);
  degraded.slow_machine_fraction = 1.0;
  degraded.slow_machine_factor = 3.0;

  ClusterRuntime fast(healthy, tree, 500.0);
  ClusterRuntime slow(degraded, tree, 500.0);
  ClusterQueryResult fast_result = fast.RunQuery(policy, realization);
  ClusterQueryResult slow_result = slow.RunQuery(policy, realization);
  EXPECT_LT(slow_result.quality, fast_result.quality);
  EXPECT_GT(slow_result.makespan, fast_result.makespan);
}

TEST(ClusterSpecTest, SlotSpeedFactorMapsMachines) {
  ClusterSpec spec;
  spec.machines = 10;
  spec.slots_per_machine = 2;
  spec.slow_machine_fraction = 0.3;  // machines 0,1,2 slow
  spec.slow_machine_factor = 5.0;
  EXPECT_EQ(spec.SlowMachines(), 3);
  EXPECT_DOUBLE_EQ(spec.SlotSpeedFactor(0), 5.0);   // machine 0
  EXPECT_DOUBLE_EQ(spec.SlotSpeedFactor(5), 5.0);   // machine 2
  EXPECT_DOUBLE_EQ(spec.SlotSpeedFactor(6), 1.0);   // machine 3
  EXPECT_DOUBLE_EQ(spec.SlotSpeedFactor(19), 1.0);  // machine 9
}

TEST(ClusterRuntimeTest, SpeculationEscapesSlowMachines) {
  // A hot spot slows 25% of machines by 8x; speculation re-runs stragglers
  // and clones can land on healthy slots, improving quality.
  TreeSpec tree = SmallTree(10, 8);  // 80 tasks
  Rng rng(31);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);

  ClusterSpec spotty = TinyCluster(25, 4);  // 100 slots: some idle for clones
  spotty.slow_machine_fraction = 0.25;
  spotty.slow_machine_factor = 8.0;

  FixedWaitPolicy policy(400.0);
  ClusterRuntime plain(spotty, tree, 500.0);
  ClusterRunOptions with_spec;
  with_spec.speculation.enabled = true;
  with_spec.speculation.max_clones = 64;
  ClusterRuntime speculative(spotty, tree, 500.0, with_spec);

  ClusterQueryResult plain_result = plain.RunQuery(policy, realization);
  ClusterQueryResult spec_result = speculative.RunQuery(policy, realization);
  EXPECT_GT(spec_result.clones_launched, 0);
  EXPECT_GE(spec_result.quality, plain_result.quality);
  EXPECT_LE(spec_result.makespan, plain_result.makespan + 1e-9);
}

TEST(ClusterExperimentTest, RunsPairedPolicies) {
  auto workload = MakeFacebookWorkload(5, 4);
  ProportionalSplitPolicy baseline;
  CedarPolicy cedar;
  ClusterExperimentConfig config;
  config.cluster = TinyCluster(5, 4);
  config.deadline = 500.0;
  config.num_queries = 10;
  config.seed = 3;
  auto result = RunClusterExperiment(workload, {&baseline, &cedar}, config);
  EXPECT_EQ(result.Outcome("cedar").quality.size(), 10u);
  EXPECT_EQ(result.Outcome("prop-split").quality.size(), 10u);
  EXPECT_EQ(result.waves, 1);
}

TEST(ClusterExperimentDeathTest, DuplicateNamesDie) {
  auto workload = MakeFacebookWorkload(4, 4);
  CedarPolicy a;
  CedarPolicy b;
  ClusterExperimentConfig config;
  config.deadline = 100.0;
  config.num_queries = 1;
  EXPECT_DEATH(RunClusterExperiment(workload, {&a, &b}, config), "duplicate");
}

TEST(ClusterExperimentDeathTest, NonFiniteDeadlineDies) {
  auto workload = MakeFacebookWorkload(4, 4);
  CedarPolicy cedar;
  ClusterExperimentConfig config;
  config.num_queries = 1;
  for (double deadline : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    config.deadline = deadline;
    EXPECT_DEATH(RunClusterExperiment(workload, {&cedar}, config), "must be finite and > 0")
        << deadline;
  }
}

// The slot scheduler checks the spec before it schedules anything, and its
// message names the field. Unchecked, a negative factor schedules task
// completions into the past and a zero factor runs zero-length tasks.
TEST(ClusterRuntimeDeathTest, RejectsBadClusterSpec) {
  TreeSpec tree = SmallTree();
  Rng rng(3);
  auto realization = SampleRealization(tree, TruthOf(tree), rng);
  FixedWaitPolicy policy(20.0);
  auto run = [&](double fraction, double factor) {
    ClusterSpec cluster = TinyCluster(4, 3);
    cluster.slow_machine_fraction = fraction;
    cluster.slow_machine_factor = factor;
    ClusterRuntime(cluster, tree, 60.0).RunQuery(policy, realization);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(run(0.5, -1.0), "slow_machine_factor");
  EXPECT_DEATH(run(0.5, 0.0), "slow_machine_factor");
  EXPECT_DEATH(run(0.5, nan), "slow_machine_factor");
  EXPECT_DEATH(run(0.5, std::numeric_limits<double>::infinity()), "slow_machine_factor");
  EXPECT_DEATH(run(-0.1, 4.0), "slow_machine_fraction");
  EXPECT_DEATH(run(1.5, 4.0), "slow_machine_fraction");
  EXPECT_DEATH(run(nan, 4.0), "slow_machine_fraction");
  for (ClusterSpec cluster :
       {TinyCluster(0, 3), TinyCluster(4, -1), TinyCluster(std::numeric_limits<int>::max(), 2)}) {
    EXPECT_DEATH(ClusterRuntime(cluster, tree, 60.0).RunQuery(policy, realization),
                 "slots_per_machine must be >= 1 and their product must fit an int");
  }
}

// The lazily drawn stack pops exactly what a stack shuffled in full up front
// pops, under random interleavings of pops and pushes of popped ids.
TEST(ShuffledSlotStackTest, PopsAsTheEagerShuffle) {
  for (uint64_t seed : {1u, 7u, 0xBEEFu, 12345u}) {
    for (int slots : {1, 2, 3, 16, 400}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", slots " + std::to_string(slots));
      std::vector<int> eager(static_cast<size_t>(slots));
      std::iota(eager.begin(), eager.end(), 0);
      Rng placement_rng(seed);
      for (size_t i = eager.size(); i > 1; --i) {
        std::swap(eager[i - 1], eager[placement_rng.NextBounded(i)]);
      }
      ShuffledSlotStack lazy(slots, seed);
      std::vector<int> taken;
      Rng ops(seed + static_cast<uint64_t>(slots));
      for (int op = 0; op < 4 * slots + 8; ++op) {
        if (!eager.empty() && (taken.empty() || ops.NextBounded(3) != 0)) {
          ASSERT_FALSE(lazy.empty());
          const int id = lazy.Pop();
          ASSERT_EQ(id, eager.back()) << "op " << op;
          eager.pop_back();
          taken.push_back(id);
        } else if (!taken.empty()) {
          const size_t pick = static_cast<size_t>(ops.NextBounded(taken.size()));
          const int id = taken[pick];
          taken.erase(taken.begin() + static_cast<std::ptrdiff_t>(pick));
          lazy.Push(id);
          eager.push_back(id);
        }
        ASSERT_EQ(lazy.empty(), eager.empty());
      }
      while (!eager.empty()) {
        ASSERT_EQ(lazy.Pop(), eager.back());
        eager.pop_back();
      }
      EXPECT_TRUE(lazy.empty());
    }
  }
}

}  // namespace
}  // namespace cedar
