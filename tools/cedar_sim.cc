// cedar_sim: flag-driven experiment runner — the Swiss-army entry point for
// exploring workloads, policies, deadlines, and execution engines without
// writing code.
//
// Examples:
//   cedar_sim --workload=facebook --policies=prop-split,cedar,ideal
//             --deadlines=500,1000,2000 --queries=100
//   cedar_sim --workload=interactive --engine=cluster --machines=80 --slots=4
//   cedar_sim --workload=facebook --engine=loaded --interarrival=200
//             --policies=cedar
//   cedar_sim --workload=google-sigma:1.7 --csv=/tmp/results.csv

#include <iostream>
#include <limits>
#include <sstream>

#include "src/cluster/experiment.h"
#include "src/cluster/loaded_runtime.h"
#include "src/common/csv.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/core/policy_registry.h"
#include "src/obs/obs_flags.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

namespace {

std::vector<double> ParseDoubleList(const std::string& text) {
  std::vector<double> values;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) {
      values.push_back(cedar::ParsePositiveDouble(token, "deadline in --deadlines"));
    }
  }
  CEDAR_CHECK(!values.empty()) << "bad --deadlines: '" << text << "' lists no deadline";
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags(
      "cedar_sim: run aggregation-query experiments from the command line.\n"
      "Engines: sim (analytic tree simulator), cluster (slot-scheduled engine),\n"
      "loaded (multi-query Poisson arrivals on a shared cluster).");
  std::string* workload_name =
      flags.AddString("workload", "facebook", "workload name (see src/trace/workloads.h)");
  std::string* policy_list = flags.AddString(
      "policies", "prop-split,cedar,ideal", "comma-separated policy names");
  std::string* deadlines_text =
      flags.AddString("deadlines", "500,1000,2000,3000", "comma-separated deadlines");
  std::string* engine = flags.AddString("engine", "sim", "sim | cluster | loaded");
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  int64_t* queries = flags.AddInt("queries", 100, "queries per deadline", 1, kIntMax);
  int64_t* k1 = flags.AddInt("k1", 50, "bottom fanout", 1, kIntMax);
  int64_t* k2 = flags.AddInt("k2", 50, "upper fanout", 1, kIntMax);
  int64_t* machines =
      flags.AddInt("machines", 80, "cluster machines (cluster/loaded engines)", 1, kIntMax);
  int64_t* slots = flags.AddInt("slots", 4, "slots per machine", 1, kIntMax);
  double* slow_fraction = flags.AddDouble(
      "slow_fraction", 0.0, "fraction of slow machines, in [0, 1] (cluster/loaded engines)");
  double* slow_factor = flags.AddDouble(
      "slow_factor", 1.0, "slowdown of slow machines, finite and > 0 (cluster/loaded engines)");
  bool* speculation = flags.AddBool("speculation", false, "enable task speculation (cluster)");
  double* interarrival = flags.AddPositiveDouble("interarrival", 100.0,
                                                 "mean query inter-arrival time (loaded engine)");
  int64_t* seed = flags.AddInt("seed", 42, "rng seed");
  int64_t* threads =
      flags.AddInt("threads", 0, "experiment worker threads (0 = one per hardware thread)", 0,
                   ThreadPool::kMaxThreads);
  std::string* csv_path = flags.AddString("csv", "", "also write results to this CSV file");
  ObservabilityFlags obs = AddObservabilityFlags(flags);
  flags.Parse(argc, argv);
  CEDAR_CHECK(*engine == "sim" || *engine == "cluster" || *engine == "loaded")
      << "unknown engine '" << *engine << "' (want sim, cluster or loaded)";
  CEDAR_CHECK_LE(*machines * *slots, kIntMax)
      << "bad --machines x --slots: " << *machines << " x " << *slots
      << " (the slot count must fit an int)";
  ObservabilityScope obs_scope = InitObservability(obs);

  auto workload =
      MakeWorkloadByName(*workload_name, static_cast<int>(*k1), static_cast<int>(*k2));
  auto policies = MakePolicyList(*policy_list);
  std::vector<const WaitPolicy*> policy_ptrs = PolicyPointers(policies);
  std::vector<double> deadlines = ParseDoubleList(*deadlines_text);

  std::vector<std::string> columns = {"deadline"};
  for (const auto* policy : policy_ptrs) {
    columns.push_back("q(" + policy->name() + ")");
  }
  if (*engine == "loaded") {
    columns.push_back("utilization");
    columns.push_back("mean_queue_delay");
  }
  TablePrinter table(columns);
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path->empty()) {
    csv = std::make_unique<CsvWriter>(*csv_path);
    csv->Header(columns);
  }

  PrintBanner(std::cout, "cedar_sim: " + workload->name() + " on engine '" + *engine + "'");
  std::cout << "offline tree: " << workload->OfflineTree().ToString() << "\n";

  for (double deadline : deadlines) {
    std::vector<std::string> row = {TablePrinter::FormatDouble(deadline, 0)};
    if (*engine == "sim") {
      ExperimentConfig config;
      config.deadline = deadline;
      config.num_queries = static_cast<int>(*queries);
      config.seed = static_cast<uint64_t>(*seed);
      config.threads = static_cast<int>(*threads);
      auto result = RunExperiment(*workload, policy_ptrs, config);
      for (const auto* policy : policy_ptrs) {
        row.push_back(TablePrinter::FormatDouble(result.Outcome(policy->name()).MeanQuality(), 4));
      }
    } else if (*engine == "cluster") {
      ClusterExperimentConfig config;
      config.cluster.machines = static_cast<int>(*machines);
      config.cluster.slots_per_machine = static_cast<int>(*slots);
      config.cluster.slow_machine_fraction = *slow_fraction;
      config.cluster.slow_machine_factor = *slow_factor;
      config.deadline = deadline;
      config.num_queries = static_cast<int>(*queries);
      config.seed = static_cast<uint64_t>(*seed);
      config.threads = static_cast<int>(*threads);
      config.run.speculation.enabled = *speculation;
      auto result = RunClusterExperiment(*workload, policy_ptrs, config);
      for (const auto* policy : policy_ptrs) {
        row.push_back(TablePrinter::FormatDouble(result.Outcome(policy->name()).MeanQuality(), 4));
      }
    } else {  // loaded
      LoadedRunConfig config;
      config.cluster.machines = static_cast<int>(*machines);
      config.cluster.slots_per_machine = static_cast<int>(*slots);
      config.cluster.slow_machine_fraction = *slow_fraction;
      config.cluster.slow_machine_factor = *slow_factor;
      config.deadline = deadline;
      config.mean_interarrival = *interarrival;
      config.num_queries = static_cast<int>(*queries);
      config.seed = static_cast<uint64_t>(*seed);
      const std::vector<LoadedRunResult> results =
          RunLoadedCluster(*workload, policy_ptrs, config);
      for (const LoadedRunResult& result : results) {
        row.push_back(TablePrinter::FormatDouble(result.MeanQuality(), 4));
      }
      // The slot schedule is the same under every policy.
      row.push_back(TablePrinter::FormatDouble(results.front().utilization, 3));
      row.push_back(TablePrinter::FormatDouble(results.front().mean_queue_delay, 2));
    }
    if (csv != nullptr) {
      csv->Row(row);
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  if (csv != nullptr) {
    std::cout << "results written to " << *csv_path << "\n";
  }
  FinishObservability(obs, obs_scope, std::cout);
  return 0;
}
