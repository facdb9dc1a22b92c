#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "src/common/logging.h"
#include "src/common/table.h"

namespace cedar {
namespace {

std::atomic<bool> g_metrics_enabled{false};

}  // namespace

bool MetricsEnabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace obs_internal {

int ThreadShard() {
  // Hashed once per thread; kMetricShards is a power of two.
  static thread_local int shard = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      static_cast<size_t>(kMetricShards - 1));
  return shard;
}

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace obs_internal

// ---- Counter ----

long long Counter::Value() const {
  long long total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Histogram ----

Histogram::Histogram() : shards_(static_cast<size_t>(obs_internal::kMetricShards)) {
  for (Shard& shard : shards_) {
    shard.min.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  }
}

int Histogram::BucketIndex(double value) {
  if (!(value >= std::ldexp(1.0, kMinExponent))) {
    return 0;  // also catches NaN and non-positive values
  }
  if (value >= std::ldexp(1.0, kMaxExponent)) {
    return kNumBuckets - 1;
  }
  int exponent = 0;
  // value = mantissa * 2^exponent with mantissa in [0.5, 1): the octave is
  // exponent - 1 and the sub-bucket the mantissa's next 4 bits.
  const double mantissa = std::frexp(value, &exponent);
  const int sub = static_cast<int>(mantissa * (2 * kSubBuckets)) - kSubBuckets;
  return 1 + (exponent - 1 - kMinExponent) * kSubBuckets + sub;
}

double Histogram::BucketMidpoint(int index) {
  const int octave = (index - 1) / kSubBuckets + kMinExponent;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, octave);
}

void Histogram::Observe(double value) {
  Shard& shard = shards_[static_cast<size_t>(obs_internal::ThreadShard())];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  obs_internal::AtomicMin(shard.min, value);
  obs_internal::AtomicMax(shard.max, value);
  double sum = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(sum, sum + value, std::memory_order_relaxed)) {
  }
  shard.buckets[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
}

long long Histogram::Count() const {
  long long total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Min() const {
  double result = std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    if (shard.count.load(std::memory_order_relaxed) > 0) {
      result = std::min(result, shard.min.load(std::memory_order_relaxed));
    }
  }
  return result;
}

double Histogram::Max() const {
  double result = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    if (shard.count.load(std::memory_order_relaxed) > 0) {
      result = std::max(result, shard.max.load(std::memory_order_relaxed));
    }
  }
  return result;
}

double Histogram::Quantile(double q) const {
  CEDAR_CHECK(q >= 0.0 && q <= 1.0);
  long long count = Count();
  if (count == 0) {
    return 0.0;
  }
  auto rank = static_cast<long long>(q * static_cast<double>(count - 1));
  long long seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    for (const Shard& shard : shards_) {
      seen += shard.buckets[static_cast<size_t>(b)].load(std::memory_order_relaxed);
    }
    if (seen > rank) {
      if (b == 0) {
        return Min();
      }
      if (b == kNumBuckets - 1) {
        return Max();
      }
      return std::clamp(BucketMidpoint(b), Min(), Max());
    }
  }
  return Max();
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

// ---- MetricsSnapshot ----

void MetricsSnapshot::WriteReport(std::ostream& out) const {
  PrintBanner(out, "metrics report");
  if (empty()) {
    out << "(no metrics recorded — run with metrics enabled)\n";
    return;
  }
  if (!counters.empty()) {
    TablePrinter table({"counter", "value"});
    for (const auto& sample : counters) {
      table.AddRow({sample.name, std::to_string(sample.value)});
    }
    table.Print(out);
  }
  if (!histograms.empty()) {
    TablePrinter table({"histogram", "count", "mean", "min", "p50", "p90", "p99", "max"});
    for (const auto& sample : histograms) {
      table.AddRow({sample.name, std::to_string(sample.count),
                    TablePrinter::FormatDouble(sample.Mean(), 4),
                    TablePrinter::FormatDouble(sample.min, 4),
                    TablePrinter::FormatDouble(sample.p50, 4),
                    TablePrinter::FormatDouble(sample.p90, 4),
                    TablePrinter::FormatDouble(sample.p99, 4),
                    TablePrinter::FormatDouble(sample.max, 4)});
    }
    table.Print(out);
  }
}

// ---- MetricsRegistry ----

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked process singleton (no destruction-order hazards).
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.count = histogram->Count();
    if (sample.count > 0) {
      sample.sum = histogram->Sum();
      sample.min = histogram->Min();
      sample.max = histogram->Max();
      sample.p50 = histogram->Quantile(0.5);
      sample.p90 = histogram->Quantile(0.9);
      sample.p99 = histogram->Quantile(0.99);
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

std::string LabeledMetricName(const std::string& name, const std::string& key, double value) {
  char formatted[64];
  std::snprintf(formatted, sizeof(formatted), "%g", value);
  return name + "{" + key + "=" + formatted + "}";
}

}  // namespace cedar
