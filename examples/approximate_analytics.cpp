// Approximate-analytics scenario (§2.1, Figure 3): a BlinkDB/Dremel-style
// framework compiles a query into map -> partial-aggregate -> root and must
// answer within a user-specified deadline. This example:
//   1. materializes a job trace from the Facebook-like workload and writes
//      it to CSV (the paper's per-job replay),
//   2. reloads it and replays every job through the slot-scheduled cluster
//      engine (320 slots) under Proportional-split and Cedar,
//   3. repeats with speculative execution enabled, showing Cedar coexisting
//      with straggler mitigation (§7).
//
//   ./approximate_analytics [--deadline=1000] [--jobs=60] [--trace=/tmp/jobs.csv]

#include <iostream>

#include "src/cluster/experiment.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/trace/trace_io.h"
#include "src/trace/workloads.h"

int main(int argc, char** argv) {
  cedar::FlagSet flags("Approximate analytics on a slot-scheduled cluster engine.");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "query deadline (seconds)");
  int64_t* jobs = flags.AddInt("jobs", 60, "number of jobs in the trace");
  std::string* trace_path =
      flags.AddString("trace", "/tmp/cedar_jobs.csv", "where to write the job trace");
  int64_t* seed = flags.AddInt("seed", 23, "trace generation seed");
  flags.Parse(argc, argv);

  // 1. Materialize and persist a job trace.
  auto generator = cedar::MakeFacebookWorkload(20, 16);
  cedar::QueryTrace trace =
      cedar::MaterializeTrace(generator, static_cast<int>(*jobs), static_cast<uint64_t>(*seed));
  cedar::SaveQueryTrace(trace, *trace_path);
  std::cout << "Materialized " << trace.queries.size() << " jobs to " << *trace_path << "\n";

  // 2. Reload and replay through the cluster engine.
  cedar::ReplayWorkload replay(cedar::LoadQueryTrace(*trace_path));
  std::cout << "Replay workload: " << replay.name() << ", offline view "
            << replay.OfflineTree().ToString() << "\n";

  cedar::ProportionalSplitPolicy prop_split;
  cedar::CedarPolicy cedar_policy;

  cedar::ClusterExperimentConfig config;
  config.cluster.machines = 80;
  config.cluster.slots_per_machine = 4;
  config.deadline = *deadline;
  config.num_queries = static_cast<int>(trace.queries.size());
  config.seed = static_cast<uint64_t>(*seed);

  auto run = [&](const char* label) {
    auto result = cedar::RunClusterExperiment(replay, {&prop_split, &cedar_policy}, config);
    cedar::TablePrinter table({"policy", "avg_quality", "p10", "p90", "late_root_arrivals"});
    for (const auto& outcome : result.outcomes) {
      table.AddRow({outcome.policy_name,
                    cedar::TablePrinter::FormatDouble(outcome.MeanQuality(), 3),
                    cedar::TablePrinter::FormatDouble(outcome.quality.Quantile(0.1), 3),
                    cedar::TablePrinter::FormatDouble(outcome.quality.Quantile(0.9), 3),
                    std::to_string(outcome.root_arrivals_late)});
    }
    std::cout << "\n--- " << label << " ---\n";
    table.Print(std::cout);
    std::cout << "Cedar improvement: +"
              << cedar::TablePrinter::FormatDouble(
                     result.ImprovementPercent("prop-split", "cedar"), 1)
              << "%  (speculative clones launched: " << result.total_clones_launched << ")\n";
  };

  run("plain engine");

  // 3. Same replay with speculative execution enabled.
  config.run.speculation.enabled = true;
  run("with speculative execution (straggler mitigation coexists with Cedar)");
  return 0;
}
