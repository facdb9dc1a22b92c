// Ablations of Cedar's design choices (DESIGN.md §5):
//  * grid step epsilon — discretization error of CalculateWait and of the
//    quality curves (epsilon is both the scan step and the curve spacing);
//  * minimum samples before trusting the online fit;
//  * re-optimization frequency (every arrival vs every n-th).
// All on the Facebook workload at D = 1000 s against Proportional-split.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

namespace {

using namespace cedar;

double CedarQuality(const Workload& workload, const CedarPolicyOptions& cedar_options,
                    double deadline, int queries, uint64_t seed, int steps) {
  CedarPolicy cedar(cedar_options);
  ExperimentConfig config;
  config.deadline = deadline;
  config.num_queries = queries;
  config.seed = seed;
  config.sim.grid.steps = steps;
  auto result = RunExperiment(workload, {&cedar}, config);
  return result.Outcome(cedar.name()).MeanQuality();
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Ablation benches for Cedar's design choices.");
  int64_t* queries = flags.AddInt("queries", 60, "queries per configuration");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "deadline (seconds)");
  int64_t* seed = flags.AddInt("seed", 42, "workload seed");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  auto workload = MakeFacebookWorkload(50, 50);
  int n = static_cast<int>(*queries);
  auto s = static_cast<uint64_t>(*seed);

  {
    PrintBanner(std::cout, "Ablation: CalculateWait scan step epsilon (fraction of deadline)");
    TablePrinter table({"epsilon_fraction", "q(cedar)"});
    for (int steps : {50, 100, 200, 400, 800}) {
      table.AddNumericRow({1.0 / steps, CedarQuality(workload, {}, *deadline, n, s, steps)}, 4);
    }
    table.Print(std::cout);
  }

  {
    PrintBanner(std::cout, "Ablation: minimum samples before the online fit is trusted");
    TablePrinter table({"min_samples", "q(cedar)"});
    for (int min_samples : {2, 5, 10, 15, 25}) {
      CedarPolicyOptions options;
      options.learner.min_samples = min_samples;
      table.AddNumericRow(
          {static_cast<double>(min_samples),
           CedarQuality(workload, options, *deadline, n, s, 400)},
          4);
    }
    table.Print(std::cout);
  }

  {
    PrintBanner(std::cout, "Ablation: re-optimization frequency (every n-th arrival)");
    TablePrinter table({"reoptimize_every", "q(cedar)"});
    for (int every : {1, 2, 5, 10, 25}) {
      CedarPolicyOptions options;
      options.reoptimize_every = every;
      table.AddNumericRow({static_cast<double>(every),
                           CedarQuality(workload, options, *deadline, n, s, 400)},
                          4);
    }
    table.Print(std::cout);
  }
  obs.Finish(std::cout);
  return 0;
}
