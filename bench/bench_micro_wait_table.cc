// Microbench for the wait-table precompute service (§4.3.3 fast path).
//
// Part 1 — build parallelism: one WaitTable build (every grid point is an
// independent OptimizeWait scan) timed serially and on worker pools of
// increasing size, with every grid point checked bit-identical to the
// serial build.
//
// Part 2 — sweep amortization: a fig08-style multi-deadline sweep of the
// table-driven Cedar run twice, with a fresh store per worker fork (every
// fork builds every table it needs, the un-amortized baseline) and through
// one WaitTableStore shared by all workers and deadlines.
// Total table-build work is counted via the wait_table.builds metric; the
// per-query qualities of both runs are asserted bit-identical, so the
// reported reduction is pure redundancy removal.
//
// --smoke shrinks the grid, the query count, and the deadline list to a
// few-second run for the tier1_store CI label.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/core/wait_table_store.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/trace/workloads.h"

namespace {

using namespace cedar;

// The un-amortized baseline: Cedar whose every ForkForWorker() replica (the
// engine forks once per worker chunk) resolves tables through a fresh store
// of its own. Clones of a fork (one per aggregator node) share its store.
class PerWorkerStoreCedar final : public WaitPolicy {
 public:
  explicit PerWorkerStoreCedar(CedarPolicyOptions options)
      : PerWorkerStoreCedar(options, std::make_shared<WaitTableStore>()) {}
  PerWorkerStoreCedar(CedarPolicyOptions options, std::shared_ptr<WaitTableStore> store)
      : options_(options), store_(std::move(store)) {
    options.table_store = store_.get();
    inner_ = std::make_unique<CedarPolicy>(options);
  }

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<PerWorkerStoreCedar>(options_, store_);
  }
  std::unique_ptr<WaitPolicy> ForkForWorker() const override {
    return std::make_unique<PerWorkerStoreCedar>(options_);
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
  CedarPolicyOptions options_;
  std::shared_ptr<WaitTableStore> store_;
  std::unique_ptr<CedarPolicy> inner_;
};

double MillisBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

// Exact grid-point lookups (bilinear weights are 0 at grid nodes), compared
// bitwise against the serial build.
void CheckBitIdentical(const WaitTable& serial, const WaitTable& parallel) {
  const WaitTableSpec& spec = serial.spec();
  for (int li = 0; li < spec.location_points; ++li) {
    double location = Lerp(spec.location_min, spec.location_max,
                           static_cast<double>(li) / (spec.location_points - 1));
    for (int si = 0; si < spec.scale_points; ++si) {
      double scale = Lerp(spec.scale_min, spec.scale_max,
                          static_cast<double>(si) / (spec.scale_points - 1));
      CEDAR_CHECK(serial.Lookup(location, scale) == parallel.Lookup(location, scale))
          << "parallel build diverged at grid point (" << li << ", " << si << ")";
    }
  }
}

void RunBuildBench(std::ostream& out, const WaitTableSpec& spec, int repeats) {
  PrintBanner(out, "Part 1: WaitTable build, serial vs pool-parallel grid fill");
  const PiecewiseLinear upper = TabulateCdf(LogNormalDistribution(3.25, 0.95), 1000.0, 401);
  const double epsilon = 1000.0 / 400.0;
  const int fanout = 50;
  out << "grid=" << spec.location_points << "x" << spec.scale_points
      << " points, repeats=" << repeats << " (best shown), hardware_threads="
      << ThreadPool::HardwareThreads() << "\n";

  auto best_build_ms = [&](ThreadPool* pool, std::unique_ptr<WaitTable>& table_out) {
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      int64_t begin = SteadyNowNs();
      auto table = std::make_unique<WaitTable>(spec, fanout, upper, 1000.0, epsilon, pool);
      double ms = MillisBetween(begin, SteadyNowNs());
      if (r == 0 || ms < best) {
        best = ms;
      }
      table_out = std::move(table);
    }
    return best;
  };

  std::unique_ptr<WaitTable> serial;
  double serial_ms = best_build_ms(nullptr, serial);

  TablePrinter table({"build", "time_ms", "speedup_x"});
  table.AddRow({"serial", TablePrinter::FormatDouble(serial_ms, 1),
                TablePrinter::FormatDouble(1.0, 2)});
  // Pools beyond the hardware width still run (the bit-identity check is the
  // point); their speedup just saturates at the core count.
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    std::unique_ptr<WaitTable> parallel;
    double parallel_ms = best_build_ms(&pool, parallel);
    CheckBitIdentical(*serial, *parallel);
    table.AddRow({"pool-" + std::to_string(threads),
                  TablePrinter::FormatDouble(parallel_ms, 1),
                  TablePrinter::FormatDouble(parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
                                             2)});
  }
  table.Print(out);
  out << "grid points bit-identical across all builds\n";
}

void RunSweepBench(std::ostream& out, const WaitTableSpec& spec,
                   const std::vector<double>& deadlines, int num_queries, int threads) {
  PrintBanner(out, "Part 2: deadline sweep, a fresh store per worker fork vs one shared store");
  auto workload = MakeFacebookWorkload(20, 20);
  out << "workload=" << workload.name() << " queries=" << num_queries
      << " threads=" << threads << " deadlines=" << deadlines.size() << "\n";

  CedarPolicyOptions options;
  options.use_wait_table = true;
  options.table_spec = spec;
  PerWorkerStoreCedar per_worker(options);
  CedarPolicy store_shared(options);

  ThreadPool pool(threads);
  WaitTableStore store;  // sweep-scoped; the engine lends |pool| per run
  Counter& builds = MetricsRegistry::Global().GetCounter("wait_table.builds");

  long long baseline_builds = 0;
  long long store_builds = 0;
  TablePrinter table({"deadline_s", "builds_per_fork", "builds_store", "mean_quality"});
  for (double deadline : deadlines) {
    ExperimentConfig config;
    config.deadline = deadline;
    config.num_queries = num_queries;
    config.seed = 42;
    config.pool = &pool;
    // Offline upper knowledge: one curve per deadline, as deployed — the
    // regime where per-worker stores redundantly rebuild the same table.
    config.sim.per_query_upper_knowledge = false;

    // No run-scoped store here, so every fork resolves its own.
    long long before = builds.Value();
    ExperimentResult baseline = RunExperiment(workload, {&per_worker}, config);
    long long per_fork_builds = builds.Value() - before;

    config.wait_table_store = &store;
    before = builds.Value();
    ExperimentResult shared = RunExperiment(workload, {&store_shared}, config);
    long long with_store = builds.Value() - before;

    // Same tables by content => byte-identical qualities, or the store path
    // changed behaviour and the comparison below is meaningless.
    const auto& base_q = baseline.Outcome("cedar").quality.values();
    const auto& store_q = shared.Outcome("cedar").quality.values();
    CEDAR_CHECK_EQ(base_q.size(), store_q.size());
    for (size_t i = 0; i < base_q.size(); ++i) {
      CEDAR_CHECK(base_q[i] == store_q[i])
          << "store-enabled quality diverged at deadline " << deadline << ", query " << i;
    }

    baseline_builds += per_fork_builds;
    store_builds += with_store;
    table.AddRow({TablePrinter::FormatDouble(deadline, 0), std::to_string(per_fork_builds),
                  std::to_string(with_store),
                  TablePrinter::FormatDouble(shared.Outcome("cedar").MeanQuality(), 3)});
  }
  table.Print(out);

  const WaitTableStoreStats stats = store.GetStats();
  out << "qualities byte-identical across both runs\n";
  out << "total builds: per-fork=" << baseline_builds << " store=" << store_builds
      << " reduction="
      << TablePrinter::FormatDouble(store_builds > 0 ? static_cast<double>(baseline_builds) /
                                                           static_cast<double>(store_builds)
                                                     : 0.0,
                                    1)
      << "x\n";
  out << "store: gets=" << stats.Gets() << " hit_rate="
      << TablePrinter::FormatDouble(100.0 * stats.HitRate(), 1)
      << "% build_waits=" << stats.build_waits << " evictions=" << stats.evictions << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Wait-table microbench: parallel builds and store amortization.");
  int64_t* queries = flags.AddInt("queries", 60, "queries per deadline (part 2)");
  int64_t* threads = flags.AddInt("threads", 4, "sweep worker threads (part 2)");
  int64_t* repeats = flags.AddInt("repeats", 3, "build timing repeats (part 1)");
  bool* smoke = flags.AddBool("smoke", false, "tiny grid and query count (CI smoke run)");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();
  // The report is driven by the wait_table.builds counter, so metrics are on
  // regardless of --metrics (which additionally prints the full report).
  SetMetricsEnabled(true);

  WaitTableSpec spec;
  spec.location_min = 0.0;
  spec.location_max = 10.0;
  spec.location_points = *smoke ? 17 : 81;
  spec.scale_min = 0.1;
  spec.scale_max = 2.5;
  spec.scale_points = *smoke ? 9 : 25;

  std::vector<double> deadlines =
      *smoke ? std::vector<double>{800.0, 1000.0}
             : std::vector<double>{600.0, 800.0, 1000.0, 1200.0};
  const int num_queries = *smoke ? 8 : static_cast<int>(*queries);
  const int sweep_threads = *smoke ? 2 : static_cast<int>(*threads);

  RunBuildBench(std::cout, spec, *smoke ? 1 : static_cast<int>(*repeats));
  RunSweepBench(std::cout, spec, deadlines, num_queries, sweep_threads);

  obs.Finish(std::cout);
  return 0;
}
