// Microbenchmarks for the CalculateWait machinery (§5.2 claims Cedar's
// algorithm completes "within tens of milliseconds even without
// parallelization"): one-shot OptimizeWait at several scan resolutions, the
// WaitScan grid build and a re-optimization on a built grid (also on the
// Figure 14 shape, with the CDF evaluations the search makes, exact and
// stopped at a bound as online Cedar's arrivals stop it), quality-curve
// construction, full tree planning, and one query tree's per-query set-up.
// Two DES microbenches time the engines around the algorithm: one
// online-interactive-shaped TreeSimulation replay and one
// table-hotspot-shaped ClusterRuntime replay (its slot dispatch included),
// each with an events/s counter.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/cluster/cluster_runtime.h"
#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/core/wait_optimizer.h"
#include "src/core/wait_table.h"
#include "src/core/wait_table_store.h"
#include "src/obs/metrics.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/trace/calibration.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

TreeSpec BenchTree(int levels = 2) {
  std::vector<StageSpec> stages;
  stages.emplace_back(std::make_shared<LogNormalDistribution>(kFacebookMapMu, kFacebookMapSigma),
                      50);
  for (int i = 1; i < levels; ++i) {
    stages.emplace_back(std::make_shared<LogNormalDistribution>(3.25, kFacebookReduceSigma), 50);
  }
  return TreeSpec(std::move(stages));
}

void BM_OptimizeWait(benchmark::State& state) {
  TreeSpec tree = BenchTree();
  const double deadline = 1000.0;
  auto upper = TabulateCdf(*tree.stage(1).duration, deadline, 401);
  double epsilon = deadline / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeWait(*tree.stage(0).duration, 50, upper, deadline, epsilon));
  }
  state.SetLabel("scan_steps=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_OptimizeWait)->Arg(100)->Arg(400)->Arg(1000)->Arg(4000);

void BM_WaitScanBuild(benchmark::State& state) {
  TreeSpec tree = BenchTree();
  const double deadline = 1000.0;
  auto upper = TabulateCdf(*tree.stage(1).duration, deadline, 401);
  double epsilon = deadline / static_cast<double>(state.range(0));
  for (auto _ : state) {
    WaitScan scan(upper, deadline, epsilon);
    benchmark::DoNotOptimize(scan);
  }
  state.SetLabel("scan_steps=" + std::to_string(state.range(0)) + " (once per aggregator)");
}
BENCHMARK(BM_WaitScanBuild)->Arg(100)->Arg(400)->Arg(1000)->Arg(4000);

void BM_WaitScanOptimize(benchmark::State& state) {
  // One build, many optimizations: the per-arrival re-optimization of online
  // Cedar, whose learner refits (mu, sigma) between calls.
  TreeSpec tree = BenchTree();
  const double deadline = 1000.0;
  auto upper = TabulateCdf(*tree.stage(1).duration, deadline, 401);
  const WaitScan scan(upper, deadline, deadline / static_cast<double>(state.range(0)));
  std::vector<LogNormalDistribution> fits;
  for (int i = 0; i < 16; ++i) {
    fits.emplace_back(kFacebookMapMu + 0.02 * i, kFacebookMapSigma * (1.0 + 0.01 * i));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.Optimize(fits[next], 50));
    next = (next + 1) % fits.size();
  }
  state.SetLabel("scan_steps=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_WaitScanOptimize)->Arg(100)->Arg(400)->Arg(1000)->Arg(4000);

// The Figure 14 shape: a Facebook-ms bottom (and fits around it) under a
// Google top, k = 50, D = 155 ms.
constexpr double kInteractiveDeadline = 155.0;

WaitScan InteractiveScan() {
  return WaitScan(TabulateCdf(LogNormalDistribution(kGoogleMu, kGoogleSigma),
                              kInteractiveDeadline, 401),
                  kInteractiveDeadline, kInteractiveDeadline / 400.0);
}

std::vector<LogNormalDistribution> InteractiveFits() {
  std::vector<LogNormalDistribution> fits;
  for (int i = 0; i < 16; ++i) {
    fits.emplace_back(kFacebookMapMu + 0.02 * i, kFacebookMapSigma * (1.0 + 0.01 * i));
  }
  return fits;
}

void BM_WaitScanOptimizeInteractive(benchmark::State& state) {
  // The same re-optimization on the Figure 14 shape. The bracketed search
  // proves the best wait from Phi at a few dozen of the grid's points;
  // cdf_evals and fallbacks count the CDF evaluations and dense-Walk
  // fallbacks per call, and steps the grid's steps, measured once outside
  // the timed loop.
  const WaitScan scan = InteractiveScan();
  const std::vector<LogNormalDistribution> fits = InteractiveFits();
  Counter& evals = MetricsRegistry::Global().GetCounter("wait_optimizer.cdf_evals");
  Counter& fallbacks = MetricsRegistry::Global().GetCounter("wait_optimizer.dense_fallbacks");
  const long long evals_before = evals.Value();
  const long long fallbacks_before = fallbacks.Value();
  SetMetricsEnabled(true);
  for (const auto& fit : fits) {
    benchmark::DoNotOptimize(scan.Optimize(fit, 50));
  }
  SetMetricsEnabled(false);
  const auto per_call = [&](long long count) {
    return static_cast<double>(count) / static_cast<double>(fits.size());
  };
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.Optimize(fits[next], 50));
    next = (next + 1) % fits.size();
  }
  state.counters["cdf_evals"] = per_call(evals.Value() - evals_before);
  state.counters["fallbacks"] = per_call(fallbacks.Value() - fallbacks_before);
  state.counters["steps"] = static_cast<double>(scan.steps());
  state.SetLabel("k=50, D=155");
}
BENCHMARK(BM_WaitScanOptimizeInteractive);

void BM_WaitScanBoundInteractive(benchmark::State& state) {
  // Online Cedar's per-arrival search on the Figure 14 shape: the same fits
  // and grid, each call stopped at a lower bound once the wait is proven
  // later than the elapsed time, state.range(0) percent of D. cdf_evals is
  // the CDF evaluations per call and exact the share of calls that finished
  // the search, measured once outside the timed loop.
  const double elapsed = kInteractiveDeadline * static_cast<double>(state.range(0)) / 100.0;
  const WaitScan scan = InteractiveScan();
  const std::vector<LogNormalDistribution> fits = InteractiveFits();
  Counter& evals = MetricsRegistry::Global().GetCounter("wait_optimizer.cdf_evals");
  const long long evals_before = evals.Value();
  int exact = 0;
  SetMetricsEnabled(true);
  for (const auto& fit : fits) {
    exact += scan.OptimizeOrBound(fit, 50, elapsed).exact ? 1 : 0;
  }
  SetMetricsEnabled(false);
  const double calls = static_cast<double>(fits.size());
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.OptimizeOrBound(fits[next], 50, elapsed));
    next = (next + 1) % fits.size();
  }
  state.counters["cdf_evals"] = static_cast<double>(evals.Value() - evals_before) / calls;
  state.counters["exact"] = static_cast<double>(exact) / calls;
  state.SetLabel("k=50, D=155, elapsed=" + std::to_string(state.range(0)) + "% of D");
}
BENCHMARK(BM_WaitScanBoundInteractive)->Arg(5)->Arg(20);

void BM_BuildQualityCurveStack(benchmark::State& state) {
  TreeSpec tree = BenchTree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto stack = BuildQualityCurveStack(tree, 1000.0);
    benchmark::DoNotOptimize(stack);
  }
  state.SetLabel("levels=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BuildQualityCurveStack)->Arg(2)->Arg(3)->Arg(4);

void BM_PlanTree(benchmark::State& state) {
  TreeSpec tree = BenchTree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TreePlan plan = PlanTree(tree, 1000.0);
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel("levels=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PlanTree)->Arg(2)->Arg(3);

void BM_QueryTreeSetUp(benchmark::State& state) {
  // What every engine pays per query before its first leaf: the per-query
  // upper curves, the tier plan, one policy clone per aggregator and each
  // aggregator's initial wait (QueryTree construction plus Start), on one
  // interactive (Figure 14) query with 50x50 fanout at a 155 ms deadline.
  MetaLogNormalWorkload workload = MakeInteractiveWorkload();
  const QueryTreeModel model(workload.OfflineTree(), 155.0, QueryTreeOptions{});
  Rng rng(1);
  QueryTruth truth = workload.DrawQuery(rng);
  truth.sequence = 1;
  const QueryRealization realization = SampleRealization(model.offline_tree(), truth, rng);
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;
  const WaitPolicy& policy =
      state.range(0) == 0 ? static_cast<const WaitPolicy&>(prop_split) : cedar;
  for (auto _ : state) {
    QueryTree tree(model, policy, realization, "bench");
    tree.Start();
    benchmark::DoNotOptimize(tree);
  }
  state.SetLabel(policy.name());
}
BENCHMARK(BM_QueryTreeSetUp)->Arg(0)->Arg(1);

void BM_WaitTableBuild(benchmark::State& state) {
  TreeSpec tree = BenchTree();
  const double deadline = 1000.0;
  auto upper = TabulateCdf(*tree.stage(1).duration, deadline, 401);
  WaitTableSpec spec;
  spec.location_min = 0.0;
  spec.location_max = 10.0;
  spec.location_points = static_cast<int>(state.range(0));
  spec.scale_min = 0.1;
  spec.scale_max = 2.5;
  spec.scale_points = 17;
  for (auto _ : state) {
    WaitTable table(spec, 50, upper, deadline, deadline / 400.0);
    benchmark::DoNotOptimize(table.Lookup(3.0, 0.8));
  }
  state.SetLabel(std::to_string(state.range(0)) + "x17 grid (offline, one-off)");
}
BENCHMARK(BM_WaitTableBuild)->Arg(17)->Arg(41);

void BM_WaitTableLookup(benchmark::State& state) {
  TreeSpec tree = BenchTree();
  const double deadline = 1000.0;
  auto upper = TabulateCdf(*tree.stage(1).duration, deadline, 401);
  WaitTableSpec spec;
  spec.location_min = 0.0;
  spec.location_max = 10.0;
  spec.location_points = 41;
  spec.scale_min = 0.1;
  spec.scale_max = 2.5;
  spec.scale_points = 17;
  WaitTable table(spec, 50, upper, deadline, deadline / 400.0);
  double mu = 2.0;
  for (auto _ : state) {
    mu = 2.0 + (mu > 6.0 ? -4.0 : 1e-4);  // vary the query point slightly
    benchmark::DoNotOptimize(table.Lookup(mu, 0.83));
  }
  state.SetLabel("the online fast path vs a full scan");
}
BENCHMARK(BM_WaitTableLookup);

// Times |replay| on 16 realizations of |workload| over |tree| (seed 1), one
// per iteration in turn. events/replay is their mean event count, from one
// untimed replay of each, so it does not depend on the iteration count.
template <typename Replay>
void ReplayInTurn(benchmark::State& state, const Workload& workload, const TreeSpec& tree,
                  Replay replay) {
  Rng rng(1);
  std::vector<QueryRealization> realizations;
  long long events = 0;
  for (int q = 0; q < 16; ++q) {
    QueryTruth truth = workload.DrawQuery(rng);
    truth.sequence = static_cast<uint64_t>(q + 1);
    realizations.push_back(SampleRealization(tree, truth, rng));
    events += replay(realizations.back()).events;
  }
  const double per_replay = static_cast<double>(events) / static_cast<double>(realizations.size());
  size_t next = 0;
  for (auto _ : state) {
    auto result = replay(realizations[next]);
    benchmark::DoNotOptimize(result);
    next = (next + 1) % realizations.size();
  }
  state.counters["events/replay"] = per_replay;
  state.counters["events/s"] = benchmark::Counter(
      per_replay * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_TreeSimulationRunQuery(benchmark::State& state) {
  // One replay per iteration on perfbench's online-interactive shape: 50 x
  // 50 fanout, D = 155 ms, per-query upper knowledge. Prop-split
  // (range(0) == 0) times the analytic engine: the query tree's set-up and
  // its queue-free fixed-time run; online Cedar (range(0) == 1) adds a wait
  // search on every arrival. events/replay counts the events the queued run
  // would schedule.
  MetaLogNormalWorkload workload = MakeInteractiveWorkload(50, 50);
  const TreeSimulation simulation(workload.OfflineTree(), 155.0);
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;
  const WaitPolicy& policy =
      state.range(0) == 0 ? static_cast<const WaitPolicy&>(prop_split) : cedar;
  ReplayInTurn(state, workload, simulation.offline_tree(), [&](const QueryRealization& r) {
    return simulation.RunQuery(policy, r);
  });
  state.SetLabel("online-interactive shape, " + policy.name());
}
BENCHMARK(BM_TreeSimulationRunQuery)->Arg(0)->Arg(1);

void BM_ClusterRunQuery(benchmark::State& state) {
  // One replay per iteration on perfbench's table-hotspot shape: 20 x 16
  // fanout, 100 x 4 slots with the first 10% of machines 4x slow,
  // speculation up to 32 clones, offline upper curves, D = 1000 s.
  // Prop-split (range(0) == 0) keeps policy decisions negligible, so it
  // times the slot scheduler's dispatch and the tree run. Cedar on
  // perfbench's wait table (range(0) == 1) adds the tier's offline-optimal
  // initial wait, a store get per query and a table lookup per arrival; the
  // table is built before timing starts. range(0) == 2 runs both through
  // the list form, as the driver does: one dispatch and one tier-0 leaf
  // order for the two trees, against the sum of /0 and /1. Its events are
  // the two trees' summed.
  MetaLogNormalWorkload workload = MakeFacebookWorkload(20, 16);
  ClusterSpec cluster;
  cluster.machines = 100;
  cluster.slots_per_machine = 4;
  cluster.slow_machine_fraction = 0.1;
  cluster.slow_machine_factor = 4.0;
  ClusterRunOptions options;
  options.per_query_upper_knowledge = false;
  options.speculation.enabled = true;
  options.speculation.max_clones = 32;
  WaitTableStore store;
  options.table_store = &store;
  const ClusterRuntime runtime(cluster, workload.OfflineTree(), 1000.0, options);
  ProportionalSplitPolicy prop_split;
  CedarPolicyOptions cedar_options;
  cedar_options.use_wait_table = true;
  cedar_options.table_spec.location_min = 2.0;
  cedar_options.table_spec.location_max = 12.0;
  cedar_options.table_spec.location_points = 81;
  cedar_options.table_spec.scale_min = 0.1;
  cedar_options.table_spec.scale_max = 2.5;
  cedar_options.table_spec.scale_points = 25;
  CedarPolicy cedar(cedar_options);
  if (state.range(0) == 2) {
    const WaitPolicy* const both[] = {&prop_split, &cedar};
    ReplayInTurn(state, workload, runtime.offline_tree(), [&](const QueryRealization& r) {
      ClusterQueryResult row[2];
      runtime.RunQuery(both, r, row);
      row[0].events += row[1].events;
      return row[0];
    });
    state.SetLabel("table-hotspot shape, prop-split + cedar on one schedule");
    return;
  }
  const WaitPolicy& policy =
      state.range(0) == 0 ? static_cast<const WaitPolicy&>(prop_split) : cedar;
  // The untimed replays that count events build Cedar's table.
  ReplayInTurn(state, workload, runtime.offline_tree(), [&](const QueryRealization& r) {
    return runtime.RunQuery(policy, r);
  });
  state.SetLabel("table-hotspot shape, " + policy.name() +
                 (state.range(0) == 0 ? "" : " with wait table"));
}
BENCHMARK(BM_ClusterRunQuery)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace cedar

BENCHMARK_MAIN();
