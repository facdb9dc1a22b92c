// Figure 12: sensitivity of Cedar's gains to the aggregation-tree fanout,
// at deadline 1000 s on the Facebook workload.
//  (a) equal fanout k1 = k2 swept from 5 to 50 (gains shrink at small
//      fanouts — quadratically fewer processes, less variation — and
//      stabilize around 50% beyond fanout 25 in the paper);
//  (b) k2 fixed at 50, ratio k1/k2 swept from 0.1 to 1.0 (gains stabilize
//      beyond a ratio of 0.2).

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

namespace {

void SweepFanouts(std::ostream& out, const std::string& title,
                  const std::vector<std::pair<int, int>>& fanouts, double deadline, int queries,
                  uint64_t seed) {
  using namespace cedar;
  PrintBanner(out, title);
  TablePrinter table({"k1", "k2", "q(prop-split)", "q(cedar)", "impr(cedar)_%"});
  for (auto [k1, k2] : fanouts) {
    auto workload = MakeFacebookWorkload(k1, k2);
    ProportionalSplitPolicy prop_split;
    CedarPolicy cedar;
    ExperimentConfig config;
    config.deadline = deadline;
    config.num_queries = queries;
    config.seed = seed;
    auto result = RunExperiment(workload, {&prop_split, &cedar}, config);
    double base = result.Outcome("prop-split").MeanQuality();
    double treat = result.Outcome("cedar").MeanQuality();
    table.AddRow({TablePrinter::FormatDouble(k1, 0), TablePrinter::FormatDouble(k2, 0),
                  TablePrinter::FormatDouble(base, 3), TablePrinter::FormatDouble(treat, 3),
                  TablePrinter::FormatDouble(base > 0 ? 100.0 * (treat - base) / base : 0.0, 1)});
  }
  table.Print(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("Figure 12: effect of fanout on Cedar's gains (D=1000s).");
  int64_t* queries = flags.AddInt("queries", 100, "queries per configuration");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "deadline (seconds)");
  int64_t* seed = flags.AddInt("seed", 42, "workload seed");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  SweepFanouts(std::cout, "Figure 12a: equal fanout k1 = k2",
               {{5, 5}, {10, 10}, {15, 15}, {20, 20}, {25, 25}, {30, 30}, {40, 40}, {50, 50}},
               *deadline, static_cast<int>(*queries), static_cast<uint64_t>(*seed));

  SweepFanouts(std::cout, "Figure 12b: k2 = 50, ratio k1/k2 swept",
               {{5, 50}, {10, 50}, {15, 50}, {20, 50}, {25, 50}, {30, 50}, {40, 50}, {50, 50}},
               *deadline, static_cast<int>(*queries), static_cast<uint64_t>(*seed));
  obs.Finish(std::cout);
  return 0;
}
