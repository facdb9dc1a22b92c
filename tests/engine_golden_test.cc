// Golden digests of the three execution engines' and the two apps' reported
// output.
//
// Each test replays a small seeded batch through one engine (TreeSimulation,
// ClusterRuntime, RunLoadedCluster) or app (SearchService,
// AnalyticsService) under Proportional-split and online Cedar — plus Ideal
// for the apps, and Ideal and offline Cedar in one simulator batch — and
// folds every result field it reports, plus the engines' Perfetto JSON
// trace export, into an FNV-1a digest of the values' bit patterns. The
// pinned digests make any numeric drift (or a change in the order of
// equal-time event ties) fail loudly, so a refactor must reproduce the
// output bit for bit.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/analytics_service.h"
#include "src/apps/search_service.h"
#include "src/cluster/cluster_runtime.h"
#include "src/cluster/loaded_runtime.h"
#include "src/core/policies.h"
#include "src/obs/trace.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

// FNV-1a over 64-bit words (doubles by bit pattern) and strings.
class Digest {
 public:
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    AddBits(bits);
  }
  void Add(long long value) { AddBits(static_cast<uint64_t>(value)); }
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      AddByte(c);
    }
  }
  std::string Hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  void AddBits(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      AddByte(static_cast<unsigned char>((bits >> (8 * byte)) & 0xFF));
    }
  }
  void AddByte(unsigned char byte) { hash_ = (hash_ ^ byte) * 0x100000001B3ull; }

  uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::vector<std::unique_ptr<WaitPolicy>> Policies() {
  std::vector<std::unique_ptr<WaitPolicy>> policies;
  policies.push_back(std::make_unique<ProportionalSplitPolicy>());
  policies.push_back(std::make_unique<CedarPolicy>());
  return policies;
}

// Seeded realizations of |workload|, sequences 1..count.
std::vector<QueryRealization> Realizations(const Workload& workload, int count, uint64_t seed) {
  TreeSpec tree = workload.OfflineTree();
  Rng rng(seed);
  std::vector<QueryRealization> realizations;
  for (int q = 0; q < count; ++q) {
    QueryTruth truth = workload.DrawQuery(rng);
    truth.sequence = static_cast<uint64_t>(q + 1);
    Rng realization_rng = rng.Fork();
    realizations.push_back(SampleRealization(tree, truth, realization_rng));
  }
  return realizations;
}

std::string ChromeJson(const TraceCollector& collector) {
  std::ostringstream out;
  collector.WriteChromeJson(out);
  return out.str();
}

// ---- TreeSimulation ----

void AddSimRuns(const Workload& workload, double deadline, bool per_query_upper_knowledge,
                TraceCollector* trace, Digest& digest,
                const std::vector<std::unique_ptr<WaitPolicy>>& policies = Policies()) {
  TreeSimulationOptions options;
  options.per_query_upper_knowledge = per_query_upper_knowledge;
  TreeSimulation sim(workload.OfflineTree(), deadline, options);
  SetActiveTraceCollector(trace);
  for (const auto& realization : Realizations(workload, 6, 11)) {
    for (const auto& policy : policies) {
      QueryResult r = sim.RunQuery(*policy, realization);
      digest.Add(r.quality);
      digest.Add(r.included_weight);
      digest.Add(r.total_weight);
      digest.Add(r.root_arrivals_in_time);
      digest.Add(r.root_arrivals_late);
      digest.Add(r.mean_tier0_send_time);
    }
  }
  SetActiveTraceCollector(nullptr);
}

TEST(EngineGoldenTest, TreeSimulation) {
  Digest digest;
  AddSimRuns(MakeFacebookWorkload(6, 4), 700.0, true, nullptr, digest);
  AddSimRuns(MakeFacebookWorkload(6, 4), 700.0, false, nullptr, digest);
  AddSimRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 900.0, true, nullptr, digest);
  EXPECT_EQ(digest.Hex(), "4dd8672d1e0100ea");
}

// The two policies whose per-query state is the whole query's (Ideal's
// plan) or one tier's (offline Cedar's send time), on a 3-level tree.
TEST(EngineGoldenTest, TreeSimulationIdealAndOffline) {
  std::vector<std::unique_ptr<WaitPolicy>> policies;
  policies.push_back(std::make_unique<OraclePolicy>());
  policies.push_back(std::make_unique<OfflineOptimalPolicy>());
  Digest digest;
  AddSimRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 900.0, true, nullptr, digest, policies);
  AddSimRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 900.0, false, nullptr, digest, policies);
  EXPECT_EQ(digest.Hex(), "7b90173c8cf95fa3");
}

TEST(EngineGoldenTest, TreeSimulationTrace) {
  TraceCollector collector;
  Digest ignored;
  AddSimRuns(MakeFacebookWorkload(6, 4), 700.0, true, &collector, ignored);
  AddSimRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 900.0, true, &collector, ignored);
  Digest digest;
  digest.Add(ChromeJson(collector));
  EXPECT_EQ(digest.Hex(), "0f0c0b8771145690");
}

// ---- ClusterRuntime ----

void AddClusterResult(const ClusterQueryResult& r, Digest& digest) {
  digest.Add(r.quality);
  digest.Add(r.included_weight);
  digest.Add(r.total_weight);
  digest.Add(r.root_arrivals_in_time);
  digest.Add(r.root_arrivals_late);
  digest.Add(static_cast<long long>(r.waves));
  digest.Add(r.makespan);
  digest.Add(r.tasks_launched);
  digest.Add(r.clones_launched);
  digest.Add(r.clones_won);
}

void AddClusterRuns(const Workload& workload, double deadline, bool per_query_upper_knowledge,
                    TraceCollector* trace, Digest& digest) {
  // Fewer slots than tasks (waves), one slow machine in three, speculation.
  ClusterSpec cluster;
  cluster.machines = 3;
  cluster.slots_per_machine = 2;
  cluster.slow_machine_fraction = 0.34;
  cluster.slow_machine_factor = 3.0;
  ClusterRunOptions options;
  options.per_query_upper_knowledge = per_query_upper_knowledge;
  options.speculation.enabled = true;
  options.speculation.max_clones = 4;
  options.runtime_seed = 5;
  ClusterRuntime runtime(cluster, workload.OfflineTree(), deadline, options);
  SetActiveTraceCollector(trace);
  for (const auto& realization : Realizations(workload, 6, 13)) {
    for (const auto& policy : Policies()) {
      AddClusterResult(runtime.RunQuery(*policy, realization), digest);
    }
  }
  SetActiveTraceCollector(nullptr);
}

TEST(EngineGoldenTest, ClusterRuntime) {
  Digest digest;
  AddClusterRuns(MakeFacebookWorkload(6, 4), 1500.0, true, nullptr, digest);
  AddClusterRuns(MakeFacebookWorkload(6, 4), 1500.0, false, nullptr, digest);
  AddClusterRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 2000.0, true, nullptr, digest);
  EXPECT_EQ(digest.Hex(), "96bde9cf741a6c7d");
}

// table-hotspot's shape: 20 x 16 fanout on 100 x 4 slots whose first 10% of
// machines run 4x slow, with speculation. Hundreds of originals launch
// together at t = 0, so the speculation picker sees long runs of equal
// elapsed times; |machines| below 80 runs the job in waves. A |max_clones|
// of 32 binds in every query; 1000 never does, so those runs clone until
// no running task is left to clone.
void AddClusterRunsAtScale(int machines, double deadline, bool per_query_upper_knowledge,
                           int max_clones, Digest& digest) {
  ClusterSpec cluster;
  cluster.machines = machines;
  cluster.slots_per_machine = 4;
  cluster.slow_machine_fraction = 0.1;
  cluster.slow_machine_factor = 4.0;
  ClusterRunOptions options;
  options.per_query_upper_knowledge = per_query_upper_knowledge;
  options.speculation.enabled = true;
  options.speculation.max_clones = max_clones;
  options.runtime_seed = 7;
  const MetaLogNormalWorkload workload = MakeFacebookWorkload(20, 16);
  ClusterRuntime runtime(cluster, workload.OfflineTree(), deadline, options);
  for (const auto& realization : Realizations(workload, 8, 19)) {
    for (const auto& policy : Policies()) {
      AddClusterResult(runtime.RunQuery(*policy, realization), digest);
    }
  }
}

TEST(EngineGoldenTest, ClusterRuntimeAtScale) {
  Digest digest;
  AddClusterRunsAtScale(100, 800.0, false, 32, digest);
  AddClusterRunsAtScale(100, 1200.0, true, 1000, digest);
  EXPECT_EQ(digest.Hex(), "95d7ddbbfca75aa2");
}

TEST(EngineGoldenTest, ClusterRuntimeAtScaleWaves) {
  Digest digest;
  AddClusterRunsAtScale(30, 2000.0, false, 32, digest);
  AddClusterRunsAtScale(30, 3000.0, true, 1000, digest);
  EXPECT_EQ(digest.Hex(), "b51284cc8b68e249");
}

TEST(EngineGoldenTest, ClusterRuntimeTrace) {
  TraceCollector collector;
  Digest ignored;
  AddClusterRuns(MakeFacebookWorkload(6, 4), 1500.0, true, &collector, ignored);
  AddClusterRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 2000.0, true, &collector, ignored);
  Digest digest;
  digest.Add(ChromeJson(collector));
  EXPECT_EQ(digest.Hex(), "8180e8bdfa2686a4");
}

// ---- RunLoadedCluster ----

void AddLoadedRuns(const Workload& workload, double deadline, bool per_query_upper_knowledge,
                   TraceCollector* trace, Digest& digest) {
  // 16 slots for 24-task (or 27-task) queries arriving faster than they
  // drain: tasks queue across queries.
  LoadedRunConfig config;
  config.cluster.machines = 4;
  config.cluster.slots_per_machine = 4;
  config.deadline = deadline;
  config.mean_interarrival = 1200.0;
  config.num_queries = 8;
  config.seed = 17;
  config.per_query_upper_knowledge = per_query_upper_knowledge;
  SetActiveTraceCollector(trace);
  for (const auto& policy : Policies()) {
    LoadedRunResult r = RunLoadedCluster(workload, *policy, config);
    for (double quality : r.per_query_quality.values()) {
      digest.Add(quality);
    }
    digest.Add(r.utilization);
    digest.Add(r.mean_queue_delay);
    digest.Add(r.makespan);
  }
  SetActiveTraceCollector(nullptr);
}

TEST(EngineGoldenTest, LoadedCluster) {
  Digest digest;
  AddLoadedRuns(MakeFacebookWorkload(6, 4), 1500.0, true, nullptr, digest);
  AddLoadedRuns(MakeFacebookWorkload(6, 4), 1500.0, false, nullptr, digest);
  AddLoadedRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 2000.0, true, nullptr, digest);
  EXPECT_EQ(digest.Hex(), "06f9333f0f771ce6");
}

TEST(EngineGoldenTest, LoadedClusterTrace) {
  TraceCollector collector;
  Digest ignored;
  AddLoadedRuns(MakeFacebookWorkload(6, 4), 1500.0, true, &collector, ignored);
  AddLoadedRuns(MakeFacebookThreeLevelWorkload(3, 3, 3), 2000.0, true, &collector, ignored);
  Digest digest;
  digest.Add(ChromeJson(collector));
  EXPECT_EQ(digest.Hex(), "b378c21dd804fa38");
}

// ---- SearchService and AnalyticsService ----

std::vector<std::unique_ptr<WaitPolicy>> AppPolicies() {
  std::vector<std::unique_ptr<WaitPolicy>> policies = Policies();
  policies.push_back(std::make_unique<OraclePolicy>());
  return policies;
}

TEST(EngineGoldenTest, SearchService) {
  const MetaLogNormalWorkload workload = MakeFacebookWorkload(6, 4);
  CorpusSpec corpus;
  corpus.num_documents = 3000;
  corpus.vocabulary_size = 400;
  corpus.seed = 3;
  const SearchIndex index(corpus, 24);
  Digest digest;
  for (double deadline : {500.0, 900.0}) {
    for (bool per_query_upper_knowledge : {true, false}) {
      SearchServiceConfig config;
      config.deadline = deadline;
      config.per_query_upper_knowledge = per_query_upper_knowledge;
      SearchService service(&index, workload.OfflineTree(), config);
      Rng query_rng(23);
      for (const auto& realization : Realizations(workload, 6, 29)) {
        std::vector<int> query = index.SampleQuery(3, query_rng);
        for (const auto& policy : AppPolicies()) {
          SearchQueryOutcome r = service.RunQuery(*policy, query, realization);
          digest.Add(r.recall);
          digest.Add(r.fraction_quality);
          digest.Add(static_cast<long long>(r.shards_included));
          digest.Add(static_cast<long long>(r.total_shards));
        }
      }
    }
  }
  EXPECT_EQ(digest.Hex(), "a71a3ecb5d40d69e");
}

TEST(EngineGoldenTest, AnalyticsService) {
  const MetaLogNormalWorkload workload = MakeFacebookWorkload(6, 4);
  FactTableSpec spec;
  spec.rows = 20000;
  spec.num_groups = 8;
  spec.num_partitions = 24;
  spec.seed = 31;
  const FactTable table(spec);
  Digest digest;
  for (double deadline : {500.0, 900.0}) {
    for (bool per_query_upper_knowledge : {true, false}) {
      AnalyticsServiceConfig config;
      config.deadline = deadline;
      config.per_query_upper_knowledge = per_query_upper_knowledge;
      AnalyticsService service(&table, workload.OfflineTree(), config);
      for (const auto& realization : Realizations(workload, 6, 37)) {
        for (const auto& policy : AppPolicies()) {
          AnalyticsOutcome r = service.RunQuery(*policy, realization);
          digest.Add(r.fraction_quality);
          digest.Add(r.mean_relative_error);
          digest.Add(static_cast<long long>(r.partitions_included));
          digest.Add(static_cast<long long>(r.groups_answered));
        }
      }
    }
  }
  EXPECT_EQ(digest.Hex(), "e9c9b723d4d6d6cb");
}

}  // namespace
}  // namespace cedar
