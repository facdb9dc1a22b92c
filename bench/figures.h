// The paper's sweep figures (§3 and §5: Figures 6, 7, 10-17) as data: each
// is a set of wait policies run over a list of (workload, deadline) points
// and printed by RunPanels (bench/bench_util.h). bench/figure_main.cc is
// built once per figure, as bench_<name>.

#ifndef CEDAR_BENCH_FIGURES_H_
#define CEDAR_BENCH_FIGURES_H_

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace cedar {

struct Figure {
  std::string description;  // the binary's --help text
  int default_queries = 100;
  std::vector<Panel> panels;
};

// The figure whose bench binary is bench_<name>, e.g. "fig06_ideal_gap";
// fatal on an unknown name.
Figure MakeFigure(const std::string& name);

}  // namespace cedar

#endif  // CEDAR_BENCH_FIGURES_H_
