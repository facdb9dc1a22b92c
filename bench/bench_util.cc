#include "bench/bench_util.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>

#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"

namespace cedar {
namespace {

// One worker pool for the whole sweep, one worker per hardware thread:
// constructing (and joining) a pool per RunExperiment call wasted a thread
// spawn/teardown per deadline. Returns null when the sweep would run
// serially anyway.
std::unique_ptr<ThreadPool> MakeSweepPool(int num_queries) {
  const int threads = std::min(ResolveThreadCount(0), std::max(num_queries, 1));
  if (threads <= 1) {
    return nullptr;
  }
  return std::make_unique<ThreadPool>(threads);
}

std::vector<std::string> SweepColumns(const std::vector<const WaitPolicy*>& policies,
                                      const std::string& baseline, const std::string& unit) {
  std::vector<std::string> columns = {"deadline_" + unit};
  for (const auto* policy : policies) {
    columns.push_back("q(" + policy->name() + ")");
  }
  for (const auto* policy : policies) {
    if (policy->name() != baseline) {
      columns.push_back("impr(" + policy->name() + ")_%");
    }
  }
  return columns;
}

std::vector<std::string> SweepRow(double deadline,
                                  const std::vector<const WaitPolicy*>& policies,
                                  const std::string& baseline,
                                  const std::function<double(const std::string&)>& quality_of) {
  std::vector<std::string> row = {TablePrinter::FormatDouble(deadline, 0)};
  for (const auto* policy : policies) {
    row.push_back(TablePrinter::FormatDouble(quality_of(policy->name()), 3));
  }
  double base_quality = quality_of(baseline);
  for (const auto* policy : policies) {
    if (policy->name() != baseline) {
      double improvement = base_quality > 0.0
                               ? 100.0 * (quality_of(policy->name()) - base_quality) / base_quality
                               : 0.0;
      row.push_back(TablePrinter::FormatDouble(improvement, 1));
    }
  }
  return row;
}

// The one deadline sweep: prints the banner and the run header (with
// |setup| naming what the engine adds, if anything), then runs |driver| on
// |config| once per deadline, on one pool, and prints a row per deadline.
template <typename Config, typename Driver>
void SweepDeadlines(std::ostream& out, const std::string& title, const std::string& setup,
                    const Workload& workload, const std::vector<const WaitPolicy*>& policies,
                    const std::vector<double>& deadlines, const SweepOptions& options,
                    Config config, Driver driver) {
  CEDAR_CHECK(!policies.empty());
  std::string baseline = options.baseline.empty() ? policies.front()->name() : options.baseline;

  PrintBanner(out, title);
  out << "workload=" << workload.name() << " unit=" << workload.time_unit() << setup
      << " queries=" << options.num_queries << " seed=" << options.seed << "\n";

  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options.num_queries);
  config.num_queries = options.num_queries;
  config.seed = options.seed;
  config.pool = pool.get();
  TablePrinter table(SweepColumns(policies, baseline, workload.time_unit()));
  for (double deadline : deadlines) {
    config.deadline = deadline;
    const auto result = driver(workload, policies, config);
    table.AddRow(SweepRow(deadline, policies, baseline, [&](const std::string& name) {
      return result.Outcome(name).MeanQuality();
    }));
  }
  table.Print(out);
}

}  // namespace

BenchObservability::BenchObservability(FlagSet& flags) : flags_(AddObservabilityFlags(flags)) {}

void BenchObservability::Init() { scope_ = InitObservability(flags_); }

void BenchObservability::Finish(std::ostream& out) { FinishObservability(flags_, scope_, out); }

void RunDeadlineSweep(std::ostream& out, const std::string& title, const Workload& workload,
                      const std::vector<const WaitPolicy*>& policies,
                      const std::vector<double>& deadlines, const SweepOptions& options) {
  SweepDeadlines(out, title, "", workload, policies, deadlines, options, ExperimentConfig{},
                 RunExperiment);
}

void RunClusterDeadlineSweep(std::ostream& out, const std::string& title,
                             const Workload& workload,
                             const std::vector<const WaitPolicy*>& policies,
                             const std::vector<double>& deadlines,
                             const ClusterSweepOptions& options) {
  ClusterExperimentConfig config;
  config.cluster = options.cluster;
  const std::string setup = " cluster=" + std::to_string(options.cluster.machines) + "x" +
                            std::to_string(options.cluster.slots_per_machine) + " slots,";
  SweepDeadlines(out, title, setup, workload, policies, deadlines, options, config,
                 RunClusterExperiment);
}

}  // namespace cedar
