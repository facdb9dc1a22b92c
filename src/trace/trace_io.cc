#include "src/trace/trace_io.h"

#include <climits>
#include <cmath>
#include <sstream>

#include "src/common/csv.h"
#include "src/common/logging.h"
#include "src/common/parse.h"

namespace cedar {

QueryTrace MaterializeTrace(const Workload& workload, int num_queries, uint64_t seed) {
  CEDAR_CHECK_GT(num_queries, 0);
  QueryTrace trace;
  trace.name = workload.name();
  trace.unit = workload.time_unit();
  TreeSpec offline = workload.OfflineTree();
  for (const auto& stage : offline.stages()) {
    trace.fanouts.push_back(stage.fanout);
  }
  Rng rng(seed);
  trace.queries.reserve(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    QueryTruth truth = workload.DrawQuery(rng);
    QueryRecord record;
    for (const auto& dist : truth.stage_durations) {
      DistributionSpec spec;
      spec.family = dist->family();
      switch (dist->family()) {
        case DistributionFamily::kLogNormal: {
          const auto* ln = static_cast<const LogNormalDistribution*>(dist.get());
          spec.p1 = ln->mu();
          spec.p2 = ln->sigma();
          break;
        }
        case DistributionFamily::kNormal:
          spec.p1 = dist->Mean();
          spec.p2 = dist->StdDev();
          break;
        case DistributionFamily::kExponential:
          spec.p1 = 1.0 / dist->Mean();
          spec.p2 = 0.0;
          break;
        default:
          CEDAR_LOG(FATAL) << "MaterializeTrace: unsupported stage family "
                           << DistributionFamilyName(dist->family());
      }
      record.stages.push_back(spec);
    }
    trace.queries.push_back(std::move(record));
  }
  return trace;
}

void SaveQueryTrace(const QueryTrace& trace, const std::string& path) {
  CsvWriter writer(path);
  writer.Header({"name", "unit", "fanouts", "query", "stage", "family", "p1", "p2"});
  std::ostringstream fanouts;
  for (size_t i = 0; i < trace.fanouts.size(); ++i) {
    if (i != 0) {
      fanouts << '|';
    }
    fanouts << trace.fanouts[i];
  }
  for (size_t q = 0; q < trace.queries.size(); ++q) {
    const auto& record = trace.queries[q];
    for (size_t s = 0; s < record.stages.size(); ++s) {
      const auto& spec = record.stages[s];
      std::ostringstream p1;
      std::ostringstream p2;
      p1.precision(17);
      p2.precision(17);
      p1 << spec.p1;
      p2 << spec.p2;
      writer.Row({trace.name, trace.unit, fanouts.str(), std::to_string(q), std::to_string(s),
                  DistributionFamilyName(spec.family), p1.str(), p2.str()});
    }
  }
}

QueryTrace LoadQueryTrace(const std::string& path) {
  CsvDocument doc = ReadCsvFile(path);
  QueryTrace trace;
  int name_col = doc.ColumnIndex("name");
  int unit_col = doc.ColumnIndex("unit");
  int fanouts_col = doc.ColumnIndex("fanouts");
  int query_col = doc.ColumnIndex("query");
  int stage_col = doc.ColumnIndex("stage");
  int family_col = doc.ColumnIndex("family");
  int p1_col = doc.ColumnIndex("p1");
  int p2_col = doc.ColumnIndex("p2");
  CEDAR_CHECK(name_col >= 0 && unit_col >= 0 && fanouts_col >= 0 && query_col >= 0 &&
              stage_col >= 0 && family_col >= 0 && p1_col >= 0 && p2_col >= 0)
      << "malformed trace CSV: " << path;
  CEDAR_CHECK(!doc.rows.empty()) << "empty trace: " << path;

  trace.name = doc.rows[0][static_cast<size_t>(name_col)];
  trace.unit = doc.rows[0][static_cast<size_t>(unit_col)];
  {
    const std::string& field = doc.rows[0][static_cast<size_t>(fanouts_col)];
    std::string token;
    std::istringstream in(field);
    while (std::getline(in, token, '|')) {
      trace.fanouts.push_back(
          static_cast<int>(ParseInt(token, "fanout in " + path, 1, INT_MAX)));
    }
  }
  // Every (query, stage) takes one row, so a query index is below the row
  // count and a stage index below the stage count.
  const auto rows = static_cast<int64_t>(doc.rows.size());
  const auto stages = static_cast<int64_t>(trace.fanouts.size());
  for (const auto& row : doc.rows) {
    auto q = static_cast<size_t>(
        ParseInt(row[static_cast<size_t>(query_col)], "query index in " + path, 0, rows - 1));
    auto s = static_cast<size_t>(
        ParseInt(row[static_cast<size_t>(stage_col)], "stage index in " + path, 0, stages - 1));
    if (trace.queries.size() <= q) {
      trace.queries.resize(q + 1);
    }
    auto& record = trace.queries[q];
    if (record.stages.size() <= s) {
      record.stages.resize(s + 1);
    }
    DistributionSpec spec;
    spec.family = DistributionFamilyFromName(row[static_cast<size_t>(family_col)]);
    spec.p1 = ParseDouble(row[static_cast<size_t>(p1_col)], "p1 in " + path);
    spec.p2 = ParseDouble(row[static_cast<size_t>(p2_col)], "p2 in " + path);
    record.stages[s] = spec;
  }
  for (const auto& record : trace.queries) {
    CEDAR_CHECK_EQ(record.stages.size(), trace.fanouts.size()) << "ragged trace: " << path;
  }
  return trace;
}

namespace {

// Fits one global spec per stage over all recorded queries: the marginal a
// production system would learn from its history. Exact moment matching for
// the location-scale families; other families fall back to the first
// record.
DistributionSpec GlobalStageFit(const QueryTrace& trace, size_t stage) {
  const DistributionSpec& first = trace.queries[0].stages[stage];
  for (const auto& record : trace.queries) {
    if (record.stages[stage].family != first.family) {
      return first;  // mixed families: no meaningful global fit
    }
  }
  if (first.family != DistributionFamily::kLogNormal &&
      first.family != DistributionFamily::kNormal) {
    return first;
  }
  // Location mixes as E[p1]; squared scale as E[p2^2] + Var(p1).
  double sum_loc = 0.0;
  double sum_loc_sq = 0.0;
  double sum_scale_sq = 0.0;
  auto n = static_cast<double>(trace.queries.size());
  for (const auto& record : trace.queries) {
    const auto& spec = record.stages[stage];
    sum_loc += spec.p1;
    sum_loc_sq += spec.p1 * spec.p1;
    sum_scale_sq += spec.p2 * spec.p2;
  }
  double mean_loc = sum_loc / n;
  double var_loc = std::max(0.0, sum_loc_sq / n - mean_loc * mean_loc);
  DistributionSpec global;
  global.family = first.family;
  global.p1 = mean_loc;
  global.p2 = std::sqrt(sum_scale_sq / n + var_loc);
  return global;
}

}  // namespace

ReplayWorkload::ReplayWorkload(QueryTrace trace) : trace_(std::move(trace)) {
  CEDAR_CHECK(!trace_.queries.empty());
  CEDAR_CHECK(!trace_.fanouts.empty());
  std::vector<StageSpec> stages;
  for (size_t s = 0; s < trace_.fanouts.size(); ++s) {
    DistributionSpec global = GlobalStageFit(trace_, s);
    stages.emplace_back(std::shared_ptr<const Distribution>(MakeDistribution(global)),
                        trace_.fanouts[s]);
  }
  offline_tree_ = TreeSpec(std::move(stages));
}

TreeSpec ReplayWorkload::OfflineTree() const { return offline_tree_; }

QueryTruth ReplayWorkload::DrawQuery(Rng& rng) const {
  QueryTruth truth = DrawQueryAt(next_query_, rng);
  next_query_ = (next_query_ + 1) % trace_.queries.size();
  return truth;
}

QueryTruth ReplayWorkload::DrawQueryAt(uint64_t index, Rng& rng) const {
  (void)rng;
  const QueryRecord& record = trace_.queries[index % trace_.queries.size()];
  QueryTruth truth;
  for (const auto& spec : record.stages) {
    truth.stage_durations.push_back(std::shared_ptr<const Distribution>(MakeDistribution(spec)));
  }
  return truth;
}

}  // namespace cedar
