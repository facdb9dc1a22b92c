// bench_<CEDAR_FIGURE>: runs the sweep figure of that name (bench/figures.cc)
// and prints its tables. Takes --queries, --seed and the observability flags.

#include <iostream>

#include "bench/bench_util.h"
#include "bench/figures.h"
#include "src/common/flags.h"

int main(int argc, char** argv) {
  using namespace cedar;
  const Figure figure = MakeFigure(CEDAR_FIGURE);
  FlagSet flags(figure.description);
  int64_t* queries = flags.AddInt("queries", figure.default_queries, "queries per row");
  int64_t* seed = flags.AddInt("seed", 42, "workload seed");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();
  RunPanels(std::cout, figure.panels, static_cast<int>(*queries), static_cast<uint64_t>(*seed));
  obs.Finish(std::cout);
  return 0;
}
