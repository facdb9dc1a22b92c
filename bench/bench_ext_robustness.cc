// Extension benches for Cedar's robustness (beyond the paper's figures):
//  * model mismatch: bimodal (body + straggler mode) within-query durations
//    while the learner fits a log-normal — the §4.2.1 claim that imperfect
//    extreme-tail fits do not hurt;
//  * weighted outputs: process outputs carry relevance weights (Appendix A
//    extension) drawn from a heavy-tailed distribution.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/sim/experiment.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"
#include "src/trace/workloads.h"

namespace {

using namespace cedar;

// A weighted variant of the experiment loop: same paired-realization replay
// but with per-leaf weights (quality = weighted fraction).
void RunWeighted(std::ostream& out, const Workload& workload, double deadline, int queries,
                 uint64_t seed) {
  ProportionalSplitPolicy prop_split;
  CedarPolicy cedar;
  OraclePolicy ideal;
  std::vector<const WaitPolicy*> policies = {&prop_split, &cedar, &ideal};

  TreeSpec offline_tree = workload.OfflineTree();
  TreeSimulation simulation(offline_tree, deadline);
  // Output relevance: heavy-tailed — a few outputs dominate the response.
  ParetoDistribution weight_dist(1.0, 1.5);

  std::vector<SampleSet> qualities(policies.size());
  Rng rng(seed);
  for (int q = 0; q < queries; ++q) {
    QueryTruth truth = workload.DrawQuery(rng);
    truth.sequence = DriverQuerySequence(seed, q);
    Rng realization_rng = rng.Fork();
    QueryRealization realization =
        SampleWeightedRealization(offline_tree, truth, weight_dist, realization_rng);
    for (size_t p = 0; p < policies.size(); ++p) {
      qualities[p].Add(simulation.RunQuery(*policies[p], realization).quality);
    }
  }

  TablePrinter table({"policy", "weighted_quality", "impr_%"});
  double base = qualities[0].Mean();
  for (size_t p = 0; p < policies.size(); ++p) {
    table.AddRow({policies[p]->name(), TablePrinter::FormatDouble(qualities[p].Mean(), 3),
                  TablePrinter::FormatDouble(100.0 * (qualities[p].Mean() - base) / base, 1)});
  }
  table.Print(out);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Robustness extension benches: model mismatch and weighted outputs.");
  int64_t* queries = flags.AddInt("queries", 80, "queries per configuration");
  int64_t* seed = flags.AddInt("seed", 42, "rng seed");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  {
    PrintBanner(std::cout,
                "Extension: bimodal within-query durations (learner still fits log-normal)");
    TablePrinter table({"straggler_fraction", "deadline_s", "q(prop-split)", "q(cedar)",
                        "q(ideal)", "impr(cedar)_%"});
    for (double fraction : {0.05, 0.10, 0.20}) {
      StragglerWorkload::Options options;
      options.straggler_fraction = fraction;
      StragglerWorkload workload(options);
      for (double deadline : {300.0, 600.0}) {
        ProportionalSplitPolicy prop_split;
        CedarPolicy cedar;
        OraclePolicy ideal;
        ExperimentConfig config;
        config.deadline = deadline;
        config.num_queries = static_cast<int>(*queries);
        config.seed = static_cast<uint64_t>(*seed);
        auto result = RunExperiment(workload, {&prop_split, &cedar, &ideal}, config);
        double base = result.Outcome("prop-split").MeanQuality();
        double treat = result.Outcome("cedar").MeanQuality();
        table.AddRow(
            {TablePrinter::FormatDouble(fraction, 2), TablePrinter::FormatDouble(deadline, 0),
             TablePrinter::FormatDouble(base, 3), TablePrinter::FormatDouble(treat, 3),
             TablePrinter::FormatDouble(result.Outcome("ideal").MeanQuality(), 3),
             TablePrinter::FormatDouble(base > 0 ? 100.0 * (treat - base) / base : 0.0, 1)});
      }
    }
    table.Print(std::cout);
    std::cout << "Note: 'ideal' knows the true bimodal distribution; Cedar's log-normal fit\n"
                 "of the body tracks it closely — the §4.2.1 robustness claim.\n";
  }

  {
    PrintBanner(std::cout, "Extension: weighted process outputs (Appendix A), Facebook "
                           "workload, D=1000s, Pareto(1, 1.5) weights");
    RunWeighted(std::cout, MakeFacebookWorkload(50, 50), 1000.0, static_cast<int>(*queries),
                static_cast<uint64_t>(*seed));
  }
  obs.Finish(std::cout);
  return 0;
}
