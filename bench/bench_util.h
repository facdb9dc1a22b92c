// Shared plumbing for the figure-reproduction harnesses: deadline sweeps
// over a workload under several policies, printed as aligned tables with
// improvement columns, for both the analytic simulator and the cluster
// engine.

#ifndef CEDAR_BENCH_BENCH_UTIL_H_
#define CEDAR_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/cluster/experiment.h"
#include "src/core/policy.h"
#include "src/obs/obs_flags.h"
#include "src/sim/experiment.h"
#include "src/sim/workload.h"

namespace cedar {

// One-call observability wiring for the figure harnesses: registers the
// shared --metrics/--metrics-report/--trace-out flags at construction, then
//
//   BenchObservability obs(flags);
//   flags.Parse(argc, argv);
//   obs.Init();
//   ... workload ...
//   obs.Finish(std::cout);
//
// keeping bench_util the single flag-parsing path for every bench binary.
class BenchObservability {
 public:
  explicit BenchObservability(FlagSet& flags);

  // Applies the parsed flags: metrics/profiling switches plus the global
  // trace collector when --trace-out was given. Call once, after Parse().
  void Init();

  // Writes the requested outputs (trace file, metrics report to |out|) and
  // uninstalls the collector.
  void Finish(std::ostream& out);

 private:
  ObservabilityFlags flags_;
  ObservabilityScope scope_;
};

// Sweeps run one worker per hardware thread (capped at num_queries);
// results are thread-count independent.
struct SweepOptions {
  int num_queries = 100;
  uint64_t seed = 42;
  // Name of the policy used as the improvement baseline ("" = first).
  std::string baseline;
};

// Runs |workload| under |policies| for every deadline and prints one row per
// deadline: avg quality per policy plus percentage improvement of each
// non-baseline policy over the baseline. Policies are borrowed, never owned
// (same rule as RunExperiment).
void RunDeadlineSweep(std::ostream& out, const std::string& title, const Workload& workload,
                      const std::vector<const WaitPolicy*>& policies,
                      const std::vector<double>& deadlines, const SweepOptions& options);

struct ClusterSweepOptions : SweepOptions {
  ClusterSpec cluster;
};

// Same, on the slot-scheduled cluster engine (the deployment substitute).
void RunClusterDeadlineSweep(std::ostream& out, const std::string& title,
                             const Workload& workload,
                             const std::vector<const WaitPolicy*>& policies,
                             const std::vector<double>& deadlines,
                             const ClusterSweepOptions& options);

}  // namespace cedar

#endif  // CEDAR_BENCH_BENCH_UTIL_H_
