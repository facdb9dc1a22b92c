// Extension benches for the cluster engine (beyond the paper's evaluation):
//  * hot spots: a fraction of machines slowed by contention, with and
//    without speculative execution — Cedar coexisting with straggler
//    mitigation (§7 future work);
//  * load: concurrent queries sharing the cluster (Poisson arrivals),
//    quality vs utilization — the regime where queueing inflates the
//    bottom-stage durations that Cedar must learn online.

#include <iostream>

#include "src/cluster/experiment.h"
#include "src/cluster/loaded_runtime.h"
#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/trace/workloads.h"

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("Cluster-engine extension benches: hot spots and load.");
  int64_t* queries = flags.AddInt("queries", 60, "queries per configuration");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "per-query deadline (seconds)");
  int64_t* seed = flags.AddInt("seed", 42, "rng seed");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  auto workload = MakeFacebookWorkload(20, 16);
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;

  {
    PrintBanner(std::cout,
                "Extension: hot spots (fraction of machines 4x slower), speculation on/off");
    TablePrinter table({"slow_fraction", "speculation", "q(prop-split)", "q(cedar)",
                        "clones", "clones_won"});
    for (double slow_fraction : {0.0, 0.1, 0.25, 0.5}) {
      for (bool speculation : {false, true}) {
        ClusterExperimentConfig config;
        config.cluster.machines = 100;  // 400 slots: idle capacity for clones
        config.cluster.slots_per_machine = 4;
        config.cluster.slow_machine_fraction = slow_fraction;
        config.cluster.slow_machine_factor = 4.0;
        config.deadline = *deadline;
        config.num_queries = static_cast<int>(*queries);
        config.seed = static_cast<uint64_t>(*seed);
        config.run.speculation.enabled = speculation;
        config.run.speculation.max_clones = 32;
        auto result = RunClusterExperiment(workload, {&prop_split, &cedar}, config);
        table.AddRow({TablePrinter::FormatDouble(slow_fraction, 2),
                      speculation ? "on" : "off",
                      TablePrinter::FormatDouble(result.Outcome("prop-split").MeanQuality(), 3),
                      TablePrinter::FormatDouble(result.Outcome("cedar").MeanQuality(), 3),
                      std::to_string(result.total_clones_launched),
                      std::to_string(result.total_clones_won)});
      }
    }
    table.Print(std::cout);
  }

  {
    PrintBanner(std::cout,
                "Extension: concurrent queries (Poisson arrivals) — quality vs utilization");
    TablePrinter table({"mean_interarrival_s", "utilization", "mean_queue_delay_s",
                        "q(prop-split)", "q(cedar)"});
    for (double interarrival : {2000.0, 1000.0, 500.0, 250.0, 125.0}) {
      LoadedRunConfig config;
      config.cluster.machines = 80;
      config.cluster.slots_per_machine = 4;
      config.deadline = *deadline;
      config.mean_interarrival = interarrival;
      config.num_queries = static_cast<int>(*queries);
      config.seed = static_cast<uint64_t>(*seed);
      const WaitPolicy* const policies[] = {&prop_split, &cedar};
      const std::vector<LoadedRunResult> results = RunLoadedCluster(workload, policies, config);
      const LoadedRunResult& baseline = results[0];
      const LoadedRunResult& treated = results[1];
      table.AddRow({TablePrinter::FormatDouble(interarrival, 0),
                    TablePrinter::FormatDouble(treated.utilization, 3),
                    TablePrinter::FormatDouble(treated.mean_queue_delay, 1),
                    TablePrinter::FormatDouble(baseline.MeanQuality(), 3),
                    TablePrinter::FormatDouble(treated.MeanQuality(), 3)});
    }
    table.Print(std::cout);
  }
  obs.Finish(std::cout);
  return 0;
}
