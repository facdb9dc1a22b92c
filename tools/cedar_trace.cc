// cedar_trace: generate, inspect, and fit job traces.
//
//   cedar_trace --mode=generate --workload=facebook --jobs=200 --out=/tmp/fb.csv
//   cedar_trace --mode=inspect --in=/tmp/fb.csv
//   cedar_trace --mode=fit --workload=facebook --samples=20000
//
// "fit" runs the §4.2.1 offline type-fitting step on samples drawn from the
// workload's bottom stage and prints the ranked candidate families.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/sample_set.h"
#include "src/common/table.h"
#include "src/obs/obs_flags.h"
#include "src/stats/fitting.h"
#include "src/trace/trace_io.h"
#include "src/trace/workloads.h"

namespace {

void Generate(const std::string& workload_name, int k1, int k2, int jobs, uint64_t seed,
              const std::string& out) {
  using namespace cedar;
  auto workload = MakeWorkloadByName(workload_name, k1, k2);
  QueryTrace trace = MaterializeTrace(*workload, jobs, seed);
  SaveQueryTrace(trace, out);
  std::cout << "wrote " << trace.queries.size() << " jobs (" << trace.fanouts.size()
            << " stages) to " << out << "\n";
}

void Inspect(const std::string& in) {
  using namespace cedar;
  QueryTrace trace = LoadQueryTrace(in);
  ReplayWorkload replay(trace);
  PrintBanner(std::cout, "trace '" + trace.name + "' (" + std::to_string(trace.queries.size()) +
                             " jobs, unit " + trace.unit + ")");
  std::cout << "global offline fit: " << replay.OfflineTree().ToString() << "\n";

  PrintBanner(std::cout, "per-job stage means");
  TablePrinter table({"stage", "min", "p10", "p25", "p50", "p75", "p90", "p99", "max"});
  for (size_t stage = 0; stage < trace.fanouts.size(); ++stage) {
    SampleSet means;
    for (const auto& record : trace.queries) {
      means.Add(MakeDistribution(record.stages[stage])->Mean());
    }
    std::vector<std::string> row = {std::to_string(stage)};
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      row.push_back(TablePrinter::FormatDouble(means.Quantile(q), 4));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

void Fit(const std::string& workload_name, int k1, int k2, int samples, uint64_t seed) {
  using namespace cedar;
  auto workload = MakeWorkloadByName(workload_name, k1, k2);
  Rng rng(seed);
  std::vector<double> durations;
  durations.reserve(static_cast<size_t>(samples));
  // Mix samples across queries: the offline fitting step sees completed
  // queries' durations, not a single query's.
  while (static_cast<int>(durations.size()) < samples) {
    QueryTruth truth = workload->DrawQuery(rng);
    for (int i = 0; i < 50 && static_cast<int>(durations.size()) < samples; ++i) {
      durations.push_back(truth.stage_durations[0]->Sample(rng));
    }
  }
  auto fits = FitSamples(std::move(durations));
  PrintBanner(std::cout, "offline distribution-type fit of " + std::to_string(samples) +
                             " bottom-stage samples from '" + workload->name() + "'");
  TablePrinter table({"rank", "family", "fit", "relative_rms_error", "max_rel_error"});
  int rank = 1;
  for (const auto& fit : fits) {
    table.AddRow({std::to_string(rank++), DistributionFamilyName(fit.spec.family),
                  fit.spec.ToString(), TablePrinter::FormatDouble(fit.relative_rms_error, 4),
                  TablePrinter::FormatDouble(fit.max_relative_error, 4)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("cedar_trace: generate / inspect / fit job traces.");
  std::string* mode = flags.AddString("mode", "generate", "generate | inspect | fit");
  std::string* workload_name = flags.AddString("workload", "facebook", "workload name");
  int64_t* jobs = flags.AddInt("jobs", 100, "jobs to generate");
  int64_t* samples = flags.AddInt("samples", 20000, "samples for --mode=fit");
  int64_t* k1 = flags.AddInt("k1", 50, "bottom fanout");
  int64_t* k2 = flags.AddInt("k2", 50, "upper fanout");
  int64_t* seed = flags.AddInt("seed", 42, "rng seed");
  std::string* out = flags.AddString("out", "/tmp/cedar_trace.csv", "output path (generate)");
  std::string* in = flags.AddString("in", "/tmp/cedar_trace.csv", "input path (inspect)");
  ObservabilityFlags obs = AddObservabilityFlags(flags);
  flags.Parse(argc, argv);
  ObservabilityScope obs_scope = InitObservability(obs);

  if (*mode == "generate") {
    Generate(*workload_name, static_cast<int>(*k1), static_cast<int>(*k2),
             static_cast<int>(*jobs), static_cast<uint64_t>(*seed), *out);
  } else if (*mode == "inspect") {
    Inspect(*in);
  } else if (*mode == "fit") {
    Fit(*workload_name, static_cast<int>(*k1), static_cast<int>(*k2),
        static_cast<int>(*samples), static_cast<uint64_t>(*seed));
  } else {
    CEDAR_LOG(FATAL) << "unknown mode '" << *mode << "'";
  }
  FinishObservability(obs, obs_scope, std::cout);
  return 0;
}
