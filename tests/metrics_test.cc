#include "src/obs/metrics.h"

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sample_set.h"
#include "src/stats/rng.h"

namespace cedar {
namespace {

TEST(CounterTest, SingleThreaded) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(10);
  EXPECT_EQ(counter.Value(), 11);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(CounterTest, ShardedAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<long long>(kThreads) * kIncrementsPerThread);
}

TEST(HistogramTest, ExactStats) {
  Histogram histogram;
  EXPECT_EQ(histogram.Count(), 0);
  for (double value : {1.0, 2.0, 3.0, 4.0}) {
    histogram.Observe(value);
  }
  EXPECT_EQ(histogram.Count(), 4);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 4.0);
}

TEST(HistogramTest, QuantilesWithinEnvelope) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Observe(static_cast<double>(i) * 0.05);  // 0.05 .. 50
  }
  double p50 = histogram.Quantile(0.5);
  double p99 = histogram.Quantile(0.99);
  EXPECT_GE(p50, histogram.Min());
  EXPECT_LE(p50, histogram.Max());
  EXPECT_LE(p50, p99);
  // Rank floor(0.5 * 999) holds 25.0.
  EXPECT_NEAR(p50, 25.0, 25.0 * Histogram::kRelativeError);
  EXPECT_GT(p99, 40.0);
}

TEST(HistogramTest, OutOfRangeRanksReportMinAndMax) {
  Histogram histogram;
  histogram.Observe(1e-9);  // below 2^-20
  histogram.Observe(0.5);
  histogram.Observe(1e9);  // at or above 2^20
  EXPECT_EQ(histogram.Count(), 3);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 1e-9);
  EXPECT_NEAR(histogram.Quantile(0.5), 0.5, 0.5 * Histogram::kRelativeError);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1e9);
}

// Every quantile of 4097 observations in [0, 1] against the exact one: with
// n - 1 = 4096, q = k / 4096 is exactly rank k for both estimators.
void ExpectQuantilesWithinBound(const std::vector<double>& values) {
  ASSERT_EQ(values.size(), 4097u);
  Histogram histogram;
  for (double value : values) {
    histogram.Observe(value);
  }
  const SampleSet exact_set(values);
  for (int k = 0; k <= 4096; ++k) {
    const double q = k / 4096.0;
    const double estimate = histogram.Quantile(q);
    const double exact = exact_set.Quantile(q);
    if (exact >= std::ldexp(1.0, Histogram::kMinExponent)) {
      EXPECT_LE(std::abs(estimate - exact), Histogram::kRelativeError * exact)
          << "q = " << q << ", exact " << exact << ", estimate " << estimate;
    } else {
      EXPECT_EQ(estimate, exact_set.Min()) << "q = " << q;
    }
  }
}

TEST(HistogramTest, QuantilesWithinBoundOnUniformData) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 4097; ++i) {
    values.push_back(rng.NextDouble());
  }
  ExpectQuantilesWithinBound(values);
}

TEST(HistogramTest, QuantilesWithinBoundOnQualityLikeData) {
  // Per-query qualities: point masses at 0 (nothing in time) and 1 (every
  // output in time) around a continuous middle.
  Rng rng(12);
  std::vector<double> values;
  for (int i = 0; i < 4097; ++i) {
    const double r = rng.NextDouble();
    values.push_back(r < 0.15 ? 0.0 : r < 0.5 ? 1.0 : rng.NextDouble());
  }
  ExpectQuantilesWithinBound(values);
}

TEST(HistogramTest, QuantilesWithinBoundAcrossDecades) {
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 4097; ++i) {
    values.push_back(std::pow(10.0, -6.0 * rng.NextDouble()));  // [1e-6, 1]
  }
  ExpectQuantilesWithinBound(values);
}

TEST(HistogramTest, ShardedObserveAcrossThreads) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(1.0 + static_cast<double>((t * kPerThread + i) % 100));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.Count(), static_cast<long long>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 100.0);
}

TEST(MetricsRegistryTest, GetReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("a");
  Counter& a_again = registry.GetCounter("a");
  EXPECT_EQ(&a, &a_again);
  a.Increment(3);
  EXPECT_EQ(registry.GetCounter("a").Value(), 3);

  Histogram& h = registry.GetHistogram("h");
  h.Observe(2.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "a");
  EXPECT_EQ(snapshot.counters[0].value, 3);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].Mean(), 2.0);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra").Increment();
  registry.GetCounter("alpha").Increment();
  registry.GetCounter("mid").Increment();
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[1].name, "mid");
  EXPECT_EQ(snapshot.counters[2].name, "zebra");
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(7);
  registry.GetHistogram("h").Observe(1.0);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c").Value(), 0);
  EXPECT_EQ(registry.GetHistogram("h").Count(), 0);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.histograms.size(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentGetAndWrite) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared").Increment();
        registry.GetHistogram("dist").Observe(1.0);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("shared").Value(), kThreads * 1000);
  EXPECT_EQ(registry.GetHistogram("dist").Count(), kThreads * 1000);
}

TEST(MetricsSnapshotTest, ReportListsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("my.counter").Increment(5);
  registry.GetHistogram("my.histogram").Observe(3.0);
  std::ostringstream out;
  registry.Snapshot().WriteReport(out);
  std::string report = out.str();
  EXPECT_NE(report.find("my.counter"), std::string::npos);
  EXPECT_NE(report.find("my.histogram"), std::string::npos);
}

TEST(MetricsSnapshotTest, EmptyReportSaysSo) {
  MetricsRegistry registry;
  std::ostringstream out;
  registry.Snapshot().WriteReport(out);
  EXPECT_NE(out.str().find("no metrics recorded"), std::string::npos);
}

TEST(LabeledMetricNameTest, FormatsKeyValueSuffix) {
  EXPECT_EQ(LabeledMetricName("sim.queries", "deadline_ms", 250.0),
            "sim.queries{deadline_ms=250}");
  EXPECT_EQ(LabeledMetricName("sim.queries", "deadline_ms", 2.5),
            "sim.queries{deadline_ms=2.5}");
}

TEST(LabeledMetricNameTest, EquivalentDoublesCollapseToOneSeries) {
  // %g formatting: 250 and 250.0 must be the same series name.
  EXPECT_EQ(LabeledMetricName("n", "deadline_ms", 250),
            LabeledMetricName("n", "deadline_ms", 250.0));
}

TEST(LabeledMetricNameTest, LabeledSeriesIsDistinctFromUnlabeled) {
  MetricsRegistry registry;
  registry.GetCounter("sim.queries").Increment(3);
  registry.GetCounter(LabeledMetricName("sim.queries", "deadline_ms", 250.0)).Increment(2);
  EXPECT_EQ(registry.GetCounter("sim.queries").Value(), 3);
  EXPECT_EQ(registry.GetCounter("sim.queries{deadline_ms=250}").Value(), 2);
}

TEST(MetricsEnabledTest, DefaultsOffAndToggles) {
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
}

}  // namespace
}  // namespace cedar
