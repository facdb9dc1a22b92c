// Quickstart: run a handful of aggregation queries from the Facebook-like
// workload under three wait policies — the Proportional-split baseline, the
// Cedar algorithm, and the Ideal (oracle) ceiling — and print the resulting
// response qualities.
//
//   ./quickstart [--deadline=1000] [--queries=50] [--fanout=50] [--seed=7]

#include <iostream>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

int main(int argc, char** argv) {
  cedar::FlagSet flags(
      "Cedar quickstart: compare wait policies on the Facebook-like workload.");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "end-to-end deadline (seconds)");
  int64_t* queries = flags.AddInt("queries", 50, "number of queries to replay");
  int64_t* fanout = flags.AddInt("fanout", 50, "fanout at both tree levels");
  int64_t* seed = flags.AddInt("seed", 7, "workload RNG seed");
  flags.Parse(argc, argv);

  auto workload =
      cedar::MakeFacebookWorkload(static_cast<int>(*fanout), static_cast<int>(*fanout));
  std::cout << "Workload: " << workload.name() << " (durations in " << workload.time_unit()
            << ")\n"
            << "Offline tree: " << workload.OfflineTree().ToString() << "\n"
            << "Deadline: " << *deadline << " " << workload.time_unit() << ", " << *queries
            << " queries\n";

  cedar::ProportionalSplitPolicy baseline;
  cedar::CedarPolicy cedar_policy;
  cedar::OraclePolicy ideal;

  cedar::ExperimentConfig config;
  config.deadline = *deadline;
  config.num_queries = static_cast<int>(*queries);
  config.seed = static_cast<uint64_t>(*seed);

  cedar::ExperimentResult result =
      cedar::RunExperiment(workload, {&baseline, &cedar_policy, &ideal}, config);

  cedar::TablePrinter table({"policy", "avg_quality", "p10_quality", "p90_quality",
                             "improvement_vs_baseline_%"});
  for (const auto& outcome : result.outcomes) {
    double improvement = cedar::PercentImprovement(
        result.Outcome(baseline.name()).MeanQuality(), outcome.MeanQuality());
    table.AddRow({outcome.policy_name, cedar::TablePrinter::FormatDouble(outcome.MeanQuality()),
                  cedar::TablePrinter::FormatDouble(outcome.quality.Quantile(0.10)),
                  cedar::TablePrinter::FormatDouble(outcome.quality.Quantile(0.90)),
                  cedar::TablePrinter::FormatDouble(improvement, 1)});
  }
  table.Print(std::cout);

  std::cout << "\nCedar improves average response quality by "
            << cedar::TablePrinter::FormatDouble(
                   result.ImprovementPercent(baseline.name(), cedar_policy.name()), 1)
            << "% over Proportional-split (Ideal ceiling: "
            << cedar::TablePrinter::FormatDouble(
                   result.ImprovementPercent(baseline.name(), ideal.name()), 1)
            << "%).\n";
  return 0;
}
