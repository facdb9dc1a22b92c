// Shared plumbing for the figure-reproduction harnesses: the observability
// flags every bench binary takes, and the one panel runner behind the
// sweep figures (bench/figures.h): a table of experiments, one row per
// (workload, deadline) point, with a quality column per policy and an
// improvement column per non-baseline policy, on the analytic simulator or
// the cluster engine.

#ifndef CEDAR_BENCH_BENCH_UTIL_H_
#define CEDAR_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster_runtime.h"
#include "src/core/policy.h"
#include "src/obs/obs_flags.h"
#include "src/sim/workload.h"

namespace cedar {

// The --metrics/--metrics-report/--trace-out flags every bench binary
// takes: construct before flags.Parse(), call Init() after it, and Finish()
// once the bench has printed its output.
class BenchObservability {
 public:
  explicit BenchObservability(FlagSet& flags);

  // Applies the parsed flags: metrics switches and the global trace collector.
  void Init();

  // Writes the trace file and the metrics report to |out|, where asked for.
  void Finish(std::ostream& out);

 private:
  ObservabilityFlags flags_;
  ObservabilityScope scope_;
};

// One printed row of a panel: its label cells, then one experiment of
// |workload| at |deadline|.
struct PanelRow {
  std::vector<std::string> labels;
  std::shared_ptr<const Workload> workload;
  double deadline = 0.0;
};

// One table of a sweep figure; a spec may leave out the fields set to {}.
struct Panel {
  std::string title;
  // The engine: the analytic simulator when empty, else the slot-scheduled
  // cluster engine on this cluster (the deployment substitute).
  std::optional<ClusterSpec> cluster = {};
  // Every row runs all of them on identical realizations; the first is the
  // baseline each improvement column is measured against.
  std::vector<std::shared_ptr<const WaitPolicy>> policies;
  std::vector<std::string> label_columns;
  std::vector<PanelRow> rows = {};
  // Printed after the table, after a blank line, when not empty.
  std::string note = {};
};

// Rows labelled by the deadline alone, all on |workload|.
std::vector<PanelRow> DeadlineRows(const std::shared_ptr<const Workload>& workload,
                                   const std::vector<double>& deadlines);

// Runs and prints |panels| in order, |num_queries| queries per row, on one
// worker pool (one worker per hardware thread, capped at num_queries;
// results are thread-count independent). A panel whose rows share one
// workload prints a run line naming it under its banner.
void RunPanels(std::ostream& out, const std::vector<Panel>& panels, int num_queries,
               uint64_t seed);

}  // namespace cedar

#endif  // CEDAR_BENCH_BENCH_UTIL_H_
