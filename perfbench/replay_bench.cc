// The repository's benchmark: replays generated queries through the public
// engine drivers under Proportional-split and Cedar.
//
//   replay_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with all instrumentation off:
// set-up time (median of several set-ups), replay throughput, CPU per
// replay, peak RSS, and Cedar's answer quality and gain over
// Proportional-split. --trace 1 replays one round three times — bare,
// with the engines' own counters on and timing decorators around the
// policies, and one query at a time with spans around every call — checks
// that all three give bit-identical per-query qualities, and reports the
// per-layer metrics. perfbench/README.md lists the workloads, the metrics
// and which end-to-end metric each layer metric should move.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/timing.h"
#include "src/cluster/cluster_runtime.h"
#include "src/cluster/experiment.h"
#include "src/cluster/loaded_runtime.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/core/wait_table_store.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/sim/experiment.h"
#include "src/sim/experiment_engine.h"
#include "src/sim/realization.h"
#include "src/sim/tree_simulation.h"
#include "src/stats/rng.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 7;
// Closed-loop workers of the parallel workloads (capped at the core count).
constexpr int kMaxWorkers = 4;

enum class Engine { kSim, kCluster, kLoaded };

struct Scenario {
  std::string name;
  Engine engine = Engine::kSim;
  std::unique_ptr<Workload> workload;
  std::vector<double> deadlines;
  // Queries per deadline in one round (per policy run on the loaded engine).
  int queries_per_round = 0;
  int warmup_queries = 0;
  // Rounds whose qualities are reported, per second of --seconds. A constant
  // rather than a measurement, so the quality metrics cover the same queries
  // on every commit however fast it runs.
  double quality_rounds_per_s = 0.0;
  int workers = 1;
  bool per_query_upper_knowledge = true;
  CedarPolicyOptions cedar;
  ClusterSpec cluster;
  SpeculationOptions speculation;
  double mean_interarrival = 0.0;
};

std::optional<Scenario> MakeScenario(const std::string& name) {
  Scenario s;
  s.name = name;
  const int workers = std::min(kMaxWorkers, ThreadPool::HardwareThreads());
  if (name == "online-interactive") {
    // Figure 14's hot path: online Cedar re-optimizes its wait on every
    // arrival, so nearly all CPU is the Eqn 3-4 scan.
    s.engine = Engine::kSim;
    s.workload = std::make_unique<MetaLogNormalWorkload>(MakeInteractiveWorkload(50, 50));
    s.deadlines = {140.0, 155.0, 170.0};
    s.queries_per_round = 16;
    s.warmup_queries = 4;
    s.quality_rounds_per_s = 0.8;
    s.workers = workers;
  } else if (name == "table-hotspot") {
    // Wait tables over offline upper knowledge: every lookup after set-up
    // hits the store, and the timed phase does no per-arrival scan.
    s.engine = Engine::kCluster;
    s.workload = std::make_unique<MetaLogNormalWorkload>(MakeFacebookWorkload(20, 16));
    s.deadlines = {600.0, 800.0, 1000.0, 1200.0};
    s.queries_per_round = 200;
    s.warmup_queries = 8;
    s.quality_rounds_per_s = 2.0;
    s.workers = workers;
    s.per_query_upper_knowledge = false;
    s.cedar.use_wait_table = true;
    s.cedar.table_spec.location_min = 2.0;
    s.cedar.table_spec.location_max = 12.0;
    s.cedar.table_spec.location_points = 81;
    s.cedar.table_spec.scale_min = 0.1;
    s.cedar.table_spec.scale_max = 2.5;
    s.cedar.table_spec.scale_points = 25;
    s.cluster.machines = 100;
    s.cluster.slots_per_machine = 4;
    s.cluster.slow_machine_fraction = 0.1;
    s.cluster.slow_machine_factor = 4.0;
    s.speculation.enabled = true;
    s.speculation.max_clones = 32;
  } else if (name == "loaded-facebook") {
    // Queries contend for one slot pool (Poisson arrivals); the engine is
    // serial. Job sizes are heavy-tailed, so one giant job can starve every
    // later query of a run: short rounds, each starting from an idle
    // cluster, keep that from swamping the quality mean.
    s.engine = Engine::kLoaded;
    s.workload = std::make_unique<MetaLogNormalWorkload>(MakeFacebookWorkload(20, 16));
    s.deadlines = {1000.0};
    s.queries_per_round = 30;
    s.warmup_queries = 20;
    s.quality_rounds_per_s = 4.0;
    s.workers = 1;
    s.cluster.machines = 80;
    s.cluster.slots_per_machine = 4;
    s.mean_interarrival = 2000.0;
  } else {
    return std::nullopt;
  }
  return s;
}

// Round r of a run draws its queries from stream r of the run's seed, and
// each deadline of a round from its own substream: distinct queries per
// deadline average out per-query variation faster than replaying the same
// queries at every deadline.
uint64_t RoundSeed(uint64_t seed, int round) {
  return DeriveStreamSeed(seed, static_cast<uint64_t>(round));
}
uint64_t DeadlineSeed(uint64_t round_seed, size_t deadline_index) {
  return DeriveStreamSeed(round_seed, deadline_index);
}
// The warm-up replays the same queries whatever the seed, so that setup_s
// measures set-up, not how costly the seed's queries happen to be.
constexpr uint64_t kWarmupSeed = 0x5E7u;

// Everything set-up builds and the timed phase reuses.
struct Harness {
  std::unique_ptr<ThreadPool> pool;  // null when the scenario runs serially
  std::unique_ptr<WaitTableStore> store;
  ProportionalSplitPolicy prop_split;
  std::unique_ptr<CedarPolicy> cedar;

  std::vector<const WaitPolicy*> Policies() const { return {&prop_split, cedar.get()}; }
};

std::unique_ptr<Harness> MakeHarness(const Scenario& s) {
  auto h = std::make_unique<Harness>();
  if (s.workers > 1) {
    h->pool = std::make_unique<ThreadPool>(s.workers);
  }
  h->store = std::make_unique<WaitTableStore>();
  h->cedar = std::make_unique<CedarPolicy>(s.cedar);
  return h;
}

// Per-query qualities of one batch: qualities[p] holds policy p's values,
// deadline by deadline, each in query order.
struct Batch {
  std::vector<std::vector<double>> qualities;
  long long clones_launched = 0;
  long long clones_won = 0;
  // Loaded engine: the last policy run's utilization and queue delay.
  double utilization = 0.0;
  double mean_queue_delay = 0.0;

  long long Replays() const {
    long long n = 0;
    for (const auto& values : qualities) {
      n += static_cast<long long>(values.size());
    }
    return n;
  }
};

void AppendOutcomes(const ExperimentResult& result, Batch& batch) {
  for (size_t p = 0; p < result.outcomes.size(); ++p) {
    const auto& values = result.outcomes[p].quality.values();
    batch.qualities[p].insert(batch.qualities[p].end(), values.begin(), values.end());
  }
}

void FillDriverConfig(const Harness& h, double deadline, uint64_t seed, int queries,
                      ExperimentDriverConfig& config) {
  config.deadline = deadline;
  config.num_queries = queries;
  config.seed = seed;
  config.threads = 1;  // used only when there is no pool
  config.pool = h.pool.get();
  config.wait_table_store = h.store.get();
}

LoadedRunConfig MakeLoadedConfig(const Scenario& s, const Harness& h, double deadline,
                                 uint64_t seed, int queries) {
  LoadedRunConfig config;
  config.cluster = s.cluster;
  config.deadline = deadline;
  config.mean_interarrival = s.mean_interarrival;
  config.num_queries = queries;
  config.seed = seed;
  config.per_query_upper_knowledge = s.per_query_upper_knowledge;
  config.table_store = h.store.get();
  return config;
}

ClusterRunOptions MakeClusterRunOptions(const Scenario& s, const Harness& h) {
  ClusterRunOptions run;
  run.per_query_upper_knowledge = s.per_query_upper_knowledge;
  run.speculation = s.speculation;
  run.table_store = h.store.get();
  return run;
}

// One batch through the engines' public drivers, as a user would run it.
Batch RunBatch(const Scenario& s, const Harness& h, const Workload& workload,
               const std::vector<const WaitPolicy*>& policies, uint64_t seed, int queries) {
  Batch batch;
  batch.qualities.resize(policies.size());
  for (size_t d = 0; d < s.deadlines.size(); ++d) {
    const double deadline = s.deadlines[d];
    const uint64_t deadline_seed = DeadlineSeed(seed, d);
    switch (s.engine) {
      case Engine::kSim: {
        ExperimentConfig config;
        FillDriverConfig(h, deadline, deadline_seed, queries, config);
        config.sim.per_query_upper_knowledge = s.per_query_upper_knowledge;
        AppendOutcomes(RunExperiment(workload, policies, config), batch);
        break;
      }
      case Engine::kCluster: {
        ClusterExperimentConfig config;
        FillDriverConfig(h, deadline, deadline_seed, queries, config);
        config.cluster = s.cluster;
        config.run = MakeClusterRunOptions(s, h);
        ClusterExperimentResult result = RunClusterExperiment(workload, policies, config);
        batch.clones_launched += result.total_clones_launched;
        batch.clones_won += result.total_clones_won;
        AppendOutcomes(result, batch);
        break;
      }
      case Engine::kLoaded: {
        const LoadedRunConfig config =
            MakeLoadedConfig(s, h, deadline, deadline_seed, queries);
        for (size_t p = 0; p < policies.size(); ++p) {
          LoadedRunResult result = RunLoadedCluster(workload, *policies[p], config);
          const auto& values = result.per_query_quality.values();
          batch.qualities[p].insert(batch.qualities[p].end(), values.begin(), values.end());
          batch.utilization = result.utilization;
          batch.mean_queue_delay = result.mean_queue_delay;
        }
        break;
      }
    }
  }
  return batch;
}

// The same batch replayed one query at a time through the public path the
// drivers take (DeriveStreamSeed/DriverQuerySequence -> DrawQueryAt ->
// SampleRealization -> RunQuery), with a span around every call. The
// loaded engine draws its queries itself, so it is spanned as one run and
// its per-query layers are re-measured on the truths it drew.
Batch ReplayTraced(const Scenario& s, const Harness& h, TimedWorkload& workload,
                   const std::vector<const WaitPolicy*>& policies, uint64_t seed, int queries,
                   SpanLog& log) {
  Batch batch;
  batch.qualities.resize(policies.size());
  const TreeSpec offline_tree = workload.OfflineTree();
  auto time_stack_build = [&](const QueryTruth& truth, double deadline, long long q) {
    const int span = log.Open("quality.stack_build", q);
    BuildQualityCurveStack(truth.OverlayOn(offline_tree), deadline, QualityGridOptions{});
    log.Close(span);
  };

  for (size_t d = 0; d < s.deadlines.size(); ++d) {
    const double deadline = s.deadlines[d];
    const uint64_t deadline_seed = DeadlineSeed(seed, d);
    if (s.engine == Engine::kLoaded) {
      const LoadedRunConfig config = MakeLoadedConfig(s, h, deadline, deadline_seed, queries);
      for (size_t p = 0; p < policies.size(); ++p) {
        const int run = log.Open("loaded.run");
        LoadedRunResult result = RunLoadedCluster(workload, *policies[p], config);
        log.Close(run);
        const auto& values = result.per_query_quality.values();
        batch.qualities[p].insert(batch.qualities[p].end(), values.begin(), values.end());
        const std::vector<QueryTruth> truths = workload.TakeDrawn();
        for (size_t q = 0; q < truths.size(); ++q) {
          Rng scratch(DeriveStreamSeed(deadline_seed, q));
          const int span = log.Open("realization.sample", static_cast<long long>(q));
          SampleRealization(offline_tree, truths[q], scratch);
          log.Close(span);
          time_stack_build(truths[q], deadline, static_cast<long long>(q));
        }
      }
      continue;
    }

    // One engine per deadline and one fork per policy, as RunExperimentGrid
    // does on a single worker.
    std::optional<TreeSimulation> sim;
    std::optional<ClusterRuntime> cluster;
    if (s.engine == Engine::kSim) {
      TreeSimulationOptions options;
      options.per_query_upper_knowledge = s.per_query_upper_knowledge;
      options.table_store = h.store.get();
      sim.emplace(offline_tree, deadline, options);
    } else {
      cluster.emplace(s.cluster, offline_tree, deadline, MakeClusterRunOptions(s, h));
    }
    auto replay = [&](const WaitPolicy& policy, const QueryRealization& realization) {
      if (sim) {
        return sim->RunQuery(policy, realization).quality;
      }
      ClusterQueryResult result = cluster->RunQuery(policy, realization);
      batch.clones_launched += result.clones_launched;
      batch.clones_won += result.clones_won;
      return result.quality;
    };
    std::vector<std::unique_ptr<WaitPolicy>> forks;
    for (const WaitPolicy* policy : policies) {
      forks.push_back(policy->ForkForWorker());
    }
    for (long long q = 0; q < queries; ++q) {
      Rng query_rng(DeriveStreamSeed(deadline_seed, static_cast<uint64_t>(q)));
      QueryTruth truth = workload.DrawQueryAt(static_cast<uint64_t>(q), query_rng);
      truth.sequence = DriverQuerySequence(deadline_seed, q);
      Rng realization_rng = query_rng.Fork();
      int span = log.Open("realization.sample", q);
      const QueryRealization realization = SampleRealization(offline_tree, truth, realization_rng);
      log.Close(span);
      time_stack_build(truth, deadline, q);
      for (size_t p = 0; p < forks.size(); ++p) {
        span = log.Open("replay", q);
        const double quality = replay(*forks[p], realization);
        log.Close(span);
        batch.qualities[p].push_back(quality);
      }
    }
  }
  return batch;
}

long long CountFailed(const Batch& batch) {
  long long failed = 0;
  for (const auto& values : batch.qualities) {
    for (double quality : values) {
      if (!std::isfinite(quality) || quality < 0.0 || quality > 1.0) {
        ++failed;
      }
    }
  }
  return failed;
}

// FNV-1a over the bit patterns of per-query qualities, in batch order.
class QualityDigest {
 public:
  void Add(const Batch& batch) {
    for (const auto& values : batch.qualities) {
      for (double quality : values) {
        uint64_t bits = 0;
        std::memcpy(&bits, &quality, sizeof(bits));
        for (int byte = 0; byte < 8; ++byte) {
          hash_ = (hash_ ^ ((bits >> (8 * byte)) & 0xFF)) * 0x100000001B3ull;
        }
      }
    }
  }
  std::string Hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash_));
    return text;
  }
  bool operator==(const QualityDigest& other) const { return hash_ == other.hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

QualityDigest DigestOf(const Batch& batch) {
  QualityDigest digest;
  digest.Add(batch);
  return digest;
}

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Mean of the middle half of |values|: robust to a few outlying rounds,
// and smooth where a median would jump between the modes of a mixture.
double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 4;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * trim);
}

// Nearest-rank quantile of ascending |sorted|; 0 when empty.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

// Durations and self times of the spans with one name.
struct SpanSummary {
  std::vector<double> durations_s;  // ascending
  double total_s = 0.0;
  double self_s = 0.0;  // total minus the time covered by child spans

  double MeanS() const {
    return durations_s.empty() ? 0.0 : total_s / static_cast<double>(durations_s.size());
  }
};

class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<Span>& spans) : spans_(spans), child_ns_(spans.size(), 0) {
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns_[static_cast<size_t>(span.parent)] += span.DurationNs();
      }
    }
  }

  SpanSummary Summarize(const std::string& name) const {
    SpanSummary summary;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) {
        continue;
      }
      const double duration = static_cast<double>(spans_[i].DurationNs()) / 1e9;
      summary.durations_s.push_back(duration);
      summary.total_s += duration;
      summary.self_s += duration - static_cast<double>(child_ns_[i]) / 1e9;
    }
    std::sort(summary.durations_s.begin(), summary.durations_s.end());
    return summary;
  }

 private:
  const std::vector<Span>& spans_;
  std::vector<int64_t> child_ns_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

void PrintReport(const Report& report) {
  bool all_finite = true;
  std::ostringstream metrics;
  metrics.precision(17);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    std::printf("%-34s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    all_finite = all_finite && std::isfinite(metric.value);
    metrics << (i > 0 ? ", " : "") << "\"" << metric.name << "\": {\"value\": "
            << (std::isfinite(metric.value) ? metric.value : 0.0) << ", \"unit\": \""
            << metric.unit << "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              report.correct && all_finite ? "true" : "false", report.attempted, report.failed,
              metrics.str().c_str());
}

void CheckBatch(const char* what, const Batch& batch, Report& report) {
  const long long failed = CountFailed(batch);
  report.attempted += batch.Replays();
  report.failed += failed;
  if (failed > 0) {
    std::fprintf(stderr, "%s: %lld replays gave a quality outside [0,1]\n", what, failed);
    report.correct = false;
  }
}

// Moves the calling thread to the next allowed CPU each round (and each
// set-up). A serial run otherwise measures only the CPU the scheduler placed
// it on, and on a shared host CPUs differ in speed from one minute to the
// next: the same loaded-facebook run measured 210-290 replays/s depending
// on its CPU (4-vCPU VM, 2.1 GHz). Rotating samples every CPU in each run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinForRound(int round) {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<size_t>(round) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// End-to-end metrics, instrumentation off.
Report RunUntraced(const Scenario& s, uint64_t seed, double seconds) {
  Report report;
  CpuRotation rotation;
  std::unique_ptr<Harness> harness;
  std::vector<double> setup_s;
  std::optional<QualityDigest> warmup_digest;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (s.workers == 1) {
      rotation.PinForRound(i);
    }
    harness.reset();
    const int64_t begin = SteadyNowNs();
    harness = MakeHarness(s);
    const Batch warmup = RunBatch(s, *harness, *s.workload, harness->Policies(),
                                  kWarmupSeed, s.warmup_queries);
    setup_s.push_back(Seconds(begin, SteadyNowNs()));
    // Every set-up replays the same warm-up queries: a differing digest
    // means replays are not deterministic.
    const QualityDigest digest = DigestOf(warmup);
    if (warmup_digest && !(*warmup_digest == digest)) {
      std::fprintf(stderr, "warm-up qualities differ between set-ups\n");
      report.correct = false;
    }
    warmup_digest = digest;
  }

  const int quality_rounds =
      std::max(1, static_cast<int>(std::lround(seconds * s.quality_rounds_per_s)));
  double base_sum = 0.0;
  double cedar_sum = 0.0;
  long long quality_samples = 0;
  QualityDigest quality_digest;
  std::string round0_digest;
  // Per-round rates, reported as interquartile means.
  std::vector<double> replays_per_s;
  std::vector<double> cpu_ms_per_replay;
  const int64_t begin = SteadyNowNs();
  for (int round = 0; round < quality_rounds || Seconds(begin, SteadyNowNs()) < seconds;
       ++round) {
    if (s.workers == 1) {
      rotation.PinForRound(round);
    }
    const double round_cpu = ProcessCpuSeconds();
    const int64_t round_begin = SteadyNowNs();
    const Batch batch = RunBatch(s, *harness, *s.workload, harness->Policies(),
                                 RoundSeed(seed, round), s.queries_per_round);
    const auto replays = static_cast<double>(batch.Replays());
    replays_per_s.push_back(replays / Seconds(round_begin, SteadyNowNs()));
    cpu_ms_per_replay.push_back(1000.0 * (ProcessCpuSeconds() - round_cpu) / replays);
    CheckBatch("timed round", batch, report);
    if (round == 0) {
      round0_digest = DigestOf(batch).Hex();
    }
    if (round < quality_rounds) {
      quality_digest.Add(batch);
      for (double quality : batch.qualities[0]) {
        base_sum += quality;
      }
      for (double quality : batch.qualities[1]) {
        cedar_sum += quality;
      }
      quality_samples += static_cast<long long>(batch.qualities[1].size());
    }
  }

  const double base_quality = base_sum / static_cast<double>(quality_samples);
  const double cedar_quality = cedar_sum / static_cast<double>(quality_samples);
  std::printf("rounds %zu (qualities from the first %d), replays %lld, wall %.3f s\n",
              replays_per_s.size(), quality_rounds, report.attempted,
              Seconds(begin, SteadyNowNs()));
  std::vector<double> sorted_rates = replays_per_s;
  std::sort(sorted_rates.begin(), sorted_rates.end());
  std::printf("replays_per_s over rounds: p25 %.4g, p50 %.4g, p75 %.4g\n",
              Quantile(sorted_rates, 0.25), Quantile(sorted_rates, 0.50),
              Quantile(sorted_rates, 0.75));
  std::printf("setup_s of each set-up:");
  for (double value : setup_s) {
    std::printf(" %.4f", value);
  }
  std::printf("\n");
  std::printf("digest round0 %s\n", round0_digest.c_str());
  std::printf("digest quality_rounds %s\n", quality_digest.Hex().c_str());
  std::printf("prop_split_quality %.6f\n", base_quality);
  std::printf("failed_frac %.6g ratio\n",
              static_cast<double>(report.failed) / static_cast<double>(report.attempted));

  report.Add("setup_s", Median(setup_s), "s");
  report.Add("replays_per_s", InterquartileMean(replays_per_s), "1/s");
  report.Add("cpu_ms_per_replay", InterquartileMean(cpu_ms_per_replay), "ms");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("cedar_quality", cedar_quality, "ratio");
  report.Add("cedar_gain_pct", PercentImprovement(base_quality, cedar_quality), "%");
  return report;
}

bool SameQualities(const Batch& a, const Batch& b) {
  if (a.qualities.size() != b.qualities.size()) {
    return false;
  }
  for (size_t p = 0; p < a.qualities.size(); ++p) {
    const auto& x = a.qualities[p];
    const auto& y = b.qualities[p];
    if (x.size() != y.size() ||
        (!x.empty() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

ProfileSample FindProfileSample(const std::string& name) {
  for (const ProfileSample& sample : CollectProfileSamples()) {
    if (sample.name == name) {
      return sample;
    }
  }
  ProfileSample empty;
  empty.name = name;
  return empty;
}

// Per-layer metrics from one round replayed three ways: bare through the
// drivers, through the drivers with the engines' counters and the policy
// decorators on, and one query at a time with spans.
Report RunTraced(const Scenario& s, uint64_t seed) {
  Report report;
  // Set-up once, with the engines' own counters on so table builds count.
  SetProfilingEnabled(true);
  SetMetricsEnabled(true);
  std::unique_ptr<Harness> harness = MakeHarness(s);
  RunBatch(s, *harness, *s.workload, harness->Policies(), kWarmupSeed, s.warmup_queries);
  const uint64_t round_seed = RoundSeed(seed, 0);
  const int queries = s.queries_per_round;

  // 1. Bare: the untraced run's first round.
  SetProfilingEnabled(false);
  SetMetricsEnabled(false);
  double cpu_begin = ProcessCpuSeconds();
  int64_t begin = SteadyNowNs();
  const Batch bare =
      RunBatch(s, *harness, *s.workload, harness->Policies(), round_seed, queries);
  const double bare_wall_s = Seconds(begin, SteadyNowNs());
  const double bare_cpu_s = ProcessCpuSeconds() - cpu_begin;
  CheckBatch("bare round", bare, report);

  // 2. Counters on, policies decorated; each worker fork logs on its own.
  SetProfilingEnabled(true);
  SetMetricsEnabled(true);
  SpanLogSet fork_logs;
  TimedPolicy timed_base(harness->prop_split.ForkForWorker(), fork_logs.NewLog(), &fork_logs);
  TimedPolicy timed_cedar(harness->cedar->ForkForWorker(), fork_logs.NewLog(), &fork_logs);
  begin = SteadyNowNs();
  const Batch counted =
      RunBatch(s, *harness, *s.workload, {&timed_base, &timed_cedar}, round_seed, queries);
  const double counted_wall_s = Seconds(begin, SteadyNowNs());
  CheckBatch("counted round", counted, report);
  SetProfilingEnabled(false);
  SetMetricsEnabled(false);

  // 3. One query at a time, spans around every call.
  SpanLog log;
  TimedWorkload timed_workload(*s.workload, &log);
  TimedPolicy span_base(harness->prop_split.ForkForWorker(), &log, nullptr);
  TimedPolicy span_cedar(harness->cedar->ForkForWorker(), &log, nullptr);
  const Batch traced =
      ReplayTraced(s, *harness, timed_workload, {&span_base, &span_cedar}, round_seed, queries,
                   log);
  CheckBatch("traced round", traced, report);

  const bool counted_same = SameQualities(bare, counted);
  const bool traced_same = SameQualities(bare, traced);
  if (!counted_same || !traced_same) {
    std::fprintf(stderr, "per-query qualities differ: decorated %s, traced %s\n",
                 counted_same ? "same" : "DIFFERENT", traced_same ? "same" : "DIFFERENT");
    report.correct = false;
  }
  std::printf("digest round0 %s (bare) %s (decorated) %s (traced)\n",
              DigestOf(bare).Hex().c_str(), DigestOf(counted).Hex().c_str(),
              DigestOf(traced).Hex().c_str());

  const SpanIndex spans(log.spans());
  const ProfileSample optimize = FindProfileSample("wait_optimizer.optimize_wait");
  const ProfileSample fit = FindProfileSample("online_learner.fit");
  const ProfileSample build = FindProfileSample("wait_table.build");
  report.Add("wait_optimizer.calls", static_cast<double>(optimize.calls), "count");
  report.Add("wait_optimizer.busy_s", static_cast<double>(optimize.total_ns) / 1e9, "s");
  report.Add("wait_optimizer.mean_us", optimize.MeanNs() / 1e3, "us");
  for (const WaitPolicy* policy : harness->Policies()) {
    const std::string prefix = "policy." + policy->name();
    const SpanSummary decisions = spans.Summarize(prefix);
    report.Add(prefix + ".decisions", static_cast<double>(decisions.durations_s.size()), "count");
    report.Add(prefix + ".decide_us_p50", 1e6 * Quantile(decisions.durations_s, 0.50), "us");
    report.Add(prefix + ".decide_us_p99", 1e6 * Quantile(decisions.durations_s, 0.99), "us");
    report.Add(prefix + ".busy_s", decisions.total_s, "s");
  }
  report.Add("online_learner.fits", static_cast<double>(fit.calls), "count");
  report.Add("online_learner.busy_s", static_cast<double>(fit.total_ns) / 1e9, "s");
  report.Add("quality.stack_build_ms_mean", 1e3 * spans.Summarize("quality.stack_build").MeanS(),
             "ms");
  report.Add("loaded.self_s", spans.Summarize("loaded.run").self_s, "s");
  report.Add("loaded.utilization", bare.utilization, "ratio");
  report.Add("loaded.queue_delay_s", bare.mean_queue_delay, "s");
  report.Add("wait_table.builds", static_cast<double>(build.calls), "count");
  report.Add("wait_table.build_s", static_cast<double>(build.total_ns) / 1e9, "s");
  const WaitTableStoreStats store = harness->store->GetStats();
  report.Add("wait_table_store.hit_rate", store.HitRate(), "ratio");
  report.Add("wait_table_store.build_waits", static_cast<double>(store.build_waits), "count");
  report.Add("wait_table_store.clamped_lookups", static_cast<double>(store.clamped_lookups),
             "count");
  const SpanSummary replays = spans.Summarize("replay");
  for (const auto& [engine, prefix] : {std::pair{Engine::kSim, std::string("sim")},
                                       std::pair{Engine::kCluster, std::string("cluster")}}) {
    const bool active = s.engine == engine;
    const double p50_ms = 1e3 * Quantile(replays.durations_s, 0.50);
    const double p99_ms = 1e3 * Quantile(replays.durations_s, 0.99);
    report.Add(prefix + ".replay_ms_p50", active ? p50_ms : 0.0, "ms");
    report.Add(prefix + ".replay_ms_p99", active ? p99_ms : 0.0, "ms");
    report.Add(prefix + ".self_s", active ? replays.self_s : 0.0, "s");
  }
  report.Add("cluster.clones_won_ratio",
             bare.clones_launched > 0 ? static_cast<double>(bare.clones_won) /
                                            static_cast<double>(bare.clones_launched)
                                      : 0.0,
             "ratio");
  report.Add("workload.draw_us_mean", 1e6 * spans.Summarize("workload.draw").MeanS(), "us");
  report.Add("realization.sample_us_mean", 1e6 * spans.Summarize("realization.sample").MeanS(),
             "us");
  MetricsRegistry& registry = MetricsRegistry::Global();
  report.Add("pool.efficiency", bare_cpu_s / (bare_wall_s * s.workers), "ratio");
  for (const char* name : {"pool.tasks_stolen", "pool.idle_waits"}) {
    report.Add(name, static_cast<double>(registry.GetCounter(name).Value()), "count");
  }
  report.Add("trace.overhead_pct", 100.0 * (counted_wall_s - bare_wall_s) / bare_wall_s, "%");

  // Shares to re-check against the expectations in perfbench/README.md.
  const SpanSummary cedar_decisions = spans.Summarize("policy.cedar");
  const double traced_replay_s = replays.total_s + spans.Summarize("loaded.run").total_s;
  std::printf("share decisions(cedar)/traced engine time %.3f\n",
              traced_replay_s > 0.0 ? cedar_decisions.total_s / traced_replay_s : 0.0);
  std::printf("store hits %lld misses %lld\n", store.hits, store.misses);
  return report;
}

}  // namespace
}  // namespace cedar

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("Replay benchmark over the three engines (see perfbench/README.md).");
  std::string* workload = flags.AddString(
      "workload", "", "online-interactive | table-hotspot | loaded-facebook");
  int64_t* seed = flags.AddInt("seed", 1, "workload seed");
  double* seconds = flags.AddDouble("seconds", 10.0, "timed phase length (untraced run)");
  int64_t* trace = flags.AddInt("trace", 0, "1 = traced per-layer run, 0 = end-to-end run");
  flags.Parse(argc, argv);

  std::optional<Scenario> scenario = MakeScenario(*workload);
  if (!scenario) {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload->c_str());
    return 2;
  }
  std::printf("workload %s, seed %lld, workers %d, trace %lld\n", scenario->name.c_str(),
              static_cast<long long>(*seed), scenario->workers, static_cast<long long>(*trace));
  const auto run_seed = static_cast<uint64_t>(*seed);
  const Report report = *trace != 0 ? RunTraced(*scenario, run_seed)
                                    : RunUntraced(*scenario, run_seed, *seconds);
  PrintReport(report);
  return 0;
}
