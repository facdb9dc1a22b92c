// Thread-safe metrics registry: counters and histograms.
//
// Design constraints (see DESIGN.md §9):
//  * Write paths are per-thread sharded — an Increment/Observe touches one
//    cache-line-aligned shard picked by the calling thread, so concurrent
//    experiment workers never contend, and instrumentation cannot perturb
//    the engine's bit-identical cross-thread-count guarantee (metrics are a
//    write-only side channel; nothing in a hot path ever reads them back).
//  * Shards are merged only on Snapshot(), which is an off-path operation
//    (end of a run, a test assertion).
//  * Collection is off by default: call sites gate on MetricsEnabled(), a
//    relaxed atomic load, so a disabled build pays one predictable branch.
//
// Usage:
//   if (MetricsEnabled()) {
//     MetricsRegistry::Global().GetCounter("sim.queries").Increment();
//   }
//   MetricsRegistry::Global().Snapshot().WriteReport(std::cout);

#ifndef CEDAR_SRC_OBS_METRICS_H_
#define CEDAR_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cedar {

// Global collection switch (relaxed atomic; off by default).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace obs_internal {

// Number of write shards per metric. A power of two so the thread-id hash
// folds cheaply; 16 covers the experiment engine's worker-count cap.
inline constexpr int kMetricShards = 16;

// Stable shard index of the calling thread in [0, kMetricShards).
int ThreadShard();

// Lock-free min/max update on an atomic double (relaxed CAS loop).
void AtomicMin(std::atomic<double>& target, double value);
void AtomicMax(std::atomic<double>& target, double value);

}  // namespace obs_internal

// A monotonically increasing integer metric.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(long long delta = 1) {
    shards_[obs_internal::ThreadShard()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  // Merged value across shards.
  long long Value() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<long long> value{0};
  };
  Shard shards_[obs_internal::kMetricShards];
};

// A distribution metric: exact count/sum/min/max plus fixed log-linear
// buckets for quantile estimation. Same sharded write path as Counter.
//
// Buckets: kSubBuckets linear sub-buckets per power of two over
// [2^kMinExponent, 2^kMaxExponent) = [2^-20, 2^20), plus one bucket below
// that range (zeros, negatives, NaN) and one at or above it. Quantile(q)
// takes the observation of rank floor(q * (Count() - 1)) and reports the
// midpoint of its bucket, clamped to [Min(), Max()]. A bucket in
// [2^e, 2^(e+1)) is 2^e / kSubBuckets wide, so for an observation v in range
// the estimate is within kRelativeError * v of v (relative error <= 1/32). A
// rank below the range reports Min(), one above it Max().
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 20;
  static constexpr double kRelativeError = 0.5 / kSubBuckets;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  long long Count() const;
  double Sum() const;
  double Min() const;  // +inf when empty
  double Max() const;  // -inf when empty

  // Estimated quantile (q in [0, 1]) within the bound above. Returns 0 when
  // empty.
  double Quantile(double q) const;

  void Reset();

 private:
  // Below-range bucket, the log-linear buckets, the above-range bucket.
  static constexpr int kNumBuckets = (kMaxExponent - kMinExponent) * kSubBuckets + 2;

  static int BucketIndex(double value);
  // Midpoint of in-range bucket |index| in value space.
  static double BucketMidpoint(int index);

  struct alignas(64) Shard {
    std::atomic<long long> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  // seeded to +/-inf by the constructor
    std::atomic<double> max{0.0};
    std::array<std::atomic<long long>, kNumBuckets> buckets{};
  };
  std::vector<Shard> shards_;
};

// One merged sample of each metric kind, for reports.
struct CounterSample {
  std::string name;
  long long value = 0;
};

struct HistogramSample {
  std::string name;
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

// Point-in-time merged view of a registry, sorted by metric name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<HistogramSample> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }

  // Aligned text tables (the --metrics-report output).
  void WriteReport(std::ostream& out) const;
};

// Owns metrics by name. Get* registers on first use and returns a stable
// reference; lookups take a mutex, so hot paths should hoist the reference
// out of per-event loops.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry used by engines, apps, and tools.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric (registrations are kept).
  void Reset();

 private:
  mutable Mutex mutex_;
  // std::map: snapshots iterate in name order, keeping reports deterministic.
  std::map<std::string, std::unique_ptr<Counter>> counters_ CEDAR_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ CEDAR_GUARDED_BY(mutex_);
};

// Canonical labeled metric name: "name{key=value}", with |value| formatted
// %g so 250 and 250.0 collapse to one series. Used for the per-deadline
// experiment metrics (e.g. sim.queries{deadline_ms=250}); labeled series are
// emitted alongside the unlabeled totals, never instead of them.
std::string LabeledMetricName(const std::string& name, const std::string& key, double value);

}  // namespace cedar

#endif  // CEDAR_SRC_OBS_METRICS_H_
