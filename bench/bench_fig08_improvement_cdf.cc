// Figure 8: CDF of per-query percentage improvement at deadline 1000 s,
// considering only queries with baseline quality > 5% (the paper's filter
// against unreasonably large ratios). The paper reports ~40% of queries
// improving by over 50%, and the bottom fifth seeing little gain.

#include <iostream>
#include <limits>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/sample_set.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/core/policies.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("Figure 8: per-query improvement CDF at D=1000s.");
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  int64_t* queries = flags.AddInt("queries", 300, "number of queries", 1, kIntMax);
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "deadline (seconds)");
  int64_t* seed = flags.AddInt("seed", 42, "workload seed");
  int64_t* threads =
      flags.AddInt("threads", 0, "experiment worker threads (0 = one per hardware thread)", 0,
                   ThreadPool::kMaxThreads);
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  auto workload = MakeFacebookWorkload(50, 50);
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;

  ExperimentConfig config;
  config.deadline = *deadline;
  config.num_queries = static_cast<int>(*queries);
  config.seed = static_cast<uint64_t>(*seed);
  config.threads = static_cast<int>(*threads);
  ExperimentResult result = RunExperiment(workload, {&prop_split, &cedar}, config);

  auto improvements = result.PerQueryImprovementPercent("prop-split", "cedar", 0.05);
  SampleSet samples(improvements);

  PrintBanner(std::cout, "Figure 8: CDF of per-query % improvement (D=" +
                             TablePrinter::FormatDouble(*deadline, 0) +
                             "s, baseline quality > 5%)");
  std::cout << "queries=" << *queries << " kept=" << samples.size() << "\n";

  TablePrinter table({"improvement_%", "cdf"});
  for (const auto& [value, fraction] : samples.CdfPoints(25)) {
    table.AddNumericRow({value, fraction}, 3);
  }
  table.Print(std::cout);

  TablePrinter summary({"statistic", "value"});
  summary.AddRow({"median_improvement_%", TablePrinter::FormatDouble(samples.Median(), 1)});
  summary.AddRow({"p90_improvement_%", TablePrinter::FormatDouble(samples.Quantile(0.9), 1)});
  summary.AddRow(
      {"fraction_improving_>50%",
       TablePrinter::FormatDouble(1.0 - samples.Ecdf(50.0), 3)});
  summary.AddRow(
      {"fraction_improving_<5%", TablePrinter::FormatDouble(samples.Ecdf(5.0), 3)});
  summary.Print(std::cout);
  obs.Finish(std::cout);
  return 0;
}
