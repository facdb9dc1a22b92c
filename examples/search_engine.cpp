// Web-search scenario (§2.1, Figure 2): a query fans out across index
// silos; every aggregator ranks and forwards results under an end-to-end
// deadline of 140-170 ms. This example runs the interactive workload
// (Facebook-map-in-ms bottom stage, Google-cluster upper stage), compares
// all wait policies, and then solves the §6 dual problem: the smallest
// deadline at which a target response quality is achievable.
//
//   ./search_engine [--deadline_ms=150] [--queries=200] [--target_quality=0.95]

#include <iostream>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/dual.h"
#include "src/core/policies.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

int main(int argc, char** argv) {
  cedar::FlagSet flags("Web-search aggregation under millisecond deadlines.");
  double* deadline = flags.AddPositiveDouble("deadline_ms", 150.0, "end-to-end deadline (ms)");
  int64_t* queries = flags.AddInt("queries", 200, "number of search queries");
  double* target = flags.AddDouble("target_quality", 0.95, "dual-problem quality target");
  int64_t* seed = flags.AddInt("seed", 17, "workload seed");
  flags.Parse(argc, argv);

  auto workload = cedar::MakeInteractiveWorkload(50, 50);
  std::cout << "Scenario: " << workload.name() << ", deadline " << *deadline << " ms, "
            << workload.OfflineTree().TotalProcesses() << " index-server processes\n";

  cedar::ProportionalSplitPolicy prop_split;
  cedar::EqualSplitPolicy equal_split;
  cedar::MeanSubtractPolicy mean_subtract;
  cedar::CedarPolicy cedar_policy;
  cedar::OraclePolicy ideal;

  cedar::ExperimentConfig config;
  config.deadline = *deadline;
  config.num_queries = static_cast<int>(*queries);
  config.seed = static_cast<uint64_t>(*seed);

  auto result = cedar::RunExperiment(
      workload, {&prop_split, &equal_split, &mean_subtract, &cedar_policy, &ideal}, config);

  cedar::TablePrinter table({"policy", "avg_quality", "p5_quality", "median", "p95_quality"});
  for (const auto& outcome : result.outcomes) {
    table.AddRow({outcome.policy_name,
                  cedar::TablePrinter::FormatDouble(outcome.MeanQuality(), 3),
                  cedar::TablePrinter::FormatDouble(outcome.quality.Quantile(0.05), 3),
                  cedar::TablePrinter::FormatDouble(outcome.quality.Median(), 3),
                  cedar::TablePrinter::FormatDouble(outcome.quality.Quantile(0.95), 3)});
  }
  table.Print(std::cout);
  std::cout << "Cedar vs Proportional-split: +"
            << cedar::TablePrinter::FormatDouble(
                   result.ImprovementPercent("prop-split", "cedar"), 1)
            << "%\n";

  // The dual problem (§6): the same machinery answers "what is the smallest
  // deadline that achieves x% quality?" for SLO planning.
  cedar::DualSolution dual =
      cedar::SolveDeadlineForQuality(workload.OfflineTree(), *target, 10.0 * *deadline);
  std::cout << "\nDual problem: reaching quality " << *target << " needs a deadline of ";
  if (dual.feasible) {
    std::cout << cedar::TablePrinter::FormatDouble(dual.deadline, 1) << " ms (achieves "
              << cedar::TablePrinter::FormatDouble(dual.achieved_quality, 3) << ").\n";
  } else {
    std::cout << "more than " << 10.0 * *deadline << " ms (infeasible in range).\n";
  }
  return 0;
}
