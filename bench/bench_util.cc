#include "bench/bench_util.h"

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>

#include "src/cluster/experiment.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/sim/experiment.h"

namespace cedar {
namespace {

void RunPanel(std::ostream& out, const Panel& panel, ExperimentDriverConfig driver) {
  CEDAR_CHECK(!panel.policies.empty() && !panel.rows.empty()) << panel.title;
  PrintBanner(out, panel.title);
  const Workload& first = *panel.rows.front().workload;
  const bool one_workload = std::all_of(panel.rows.begin(), panel.rows.end(), [&](const auto& row) {
    return row.workload.get() == &first;
  });
  if (one_workload) {
    out << "workload=" << first.name() << " unit=" << first.time_unit();
    if (panel.cluster) {
      out << " cluster=" << panel.cluster->machines << "x" << panel.cluster->slots_per_machine
          << " slots,";
    }
    out << " queries=" << driver.num_queries << " seed=" << driver.seed << "\n";
  }

  std::vector<const WaitPolicy*> policies;
  std::vector<std::string> columns = panel.label_columns;
  for (const auto& policy : panel.policies) {
    policies.push_back(policy.get());
    columns.push_back("q(" + policy->name() + ")");
  }
  for (size_t p = 1; p < policies.size(); ++p) {
    columns.push_back("impr(" + policies[p]->name() + ")_%");
  }
  TablePrinter table(columns);
  for (const PanelRow& row : panel.rows) {
    driver.deadline = row.deadline;
    const ExperimentResult result =
        panel.cluster
            ? RunClusterExperiment(*row.workload, policies, {driver, *panel.cluster, {}})
            : RunExperiment(*row.workload, policies, {driver, {}});
    std::vector<std::string> cells = row.labels;
    std::vector<double> quality;
    for (const PolicyOutcome& outcome : result.outcomes) {
      quality.push_back(outcome.MeanQuality());
      cells.push_back(TablePrinter::FormatDouble(quality.back(), 3));
    }
    for (size_t p = 1; p < quality.size(); ++p) {
      const double improvement =
          quality[0] > 0.0 ? 100.0 * (quality[p] - quality[0]) / quality[0] : 0.0;
      cells.push_back(TablePrinter::FormatDouble(improvement, 1));
    }
    table.AddRow(std::move(cells));
  }
  table.Print(out);
  if (!panel.note.empty()) {
    out << "\n" << panel.note << "\n";
  }
}

}  // namespace

BenchObservability::BenchObservability(FlagSet& flags) : flags_(AddObservabilityFlags(flags)) {}

void BenchObservability::Init() { scope_ = InitObservability(flags_); }

void BenchObservability::Finish(std::ostream& out) { FinishObservability(flags_, scope_, out); }

std::vector<PanelRow> DeadlineRows(const std::shared_ptr<const Workload>& workload,
                                   const std::vector<double>& deadlines) {
  std::vector<PanelRow> rows;
  for (double deadline : deadlines) {
    rows.push_back({{TablePrinter::FormatDouble(deadline, 0)}, workload, deadline});
  }
  return rows;
}

void RunPanels(std::ostream& out, const std::vector<Panel>& panels, int num_queries,
               uint64_t seed) {
  // One pool for every row, one worker per hardware thread; none when the
  // rows would run serially anyway.
  const int threads = std::min(ResolveThreadCount(0), std::max(num_queries, 1));
  std::unique_ptr<ThreadPool> pool = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  ExperimentDriverConfig driver;
  driver.num_queries = num_queries;
  driver.seed = seed;
  driver.pool = pool.get();
  for (const Panel& panel : panels) {
    RunPanel(out, panel, driver);
  }
}

}  // namespace cedar
