// WaitTableStore contract: content-fingerprint keying (collisions resolved
// by full key compare), single-flight construction, LRU-bounded capacity,
// clamped-lookup propagation across eviction, and bit-identical parallel
// builds. Carries the tier1_tsan label: the single-flight, shared-build and
// evict-under-metrics paths are meant to run under -DCEDAR_SANITIZE=thread.

#include "src/core/wait_table_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/thread_pool.h"
#include "src/core/quality.h"
#include "src/obs/metrics.h"
#include "src/stats/distribution.h"

namespace cedar {
namespace {

// A small grid keeps each build to a few milliseconds so the concurrency
// tests can afford many of them.
struct StoreFixture {
  StoreFixture()
      : upper(TabulateCdf(LogNormalDistribution(3.25, 0.95), 400.0, 81)),
        epsilon(400.0 / 80.0) {
    spec.location_min = 1.0;
    spec.location_max = 5.0;
    spec.location_points = 9;
    spec.scale_min = 0.2;
    spec.scale_max = 1.4;
    spec.scale_points = 7;
  }

  WaitTableKey KeyAt(double deadline) const {
    return WaitTableKey::Of(spec, 8, upper, deadline, epsilon);
  }

  WaitTableSpec spec;
  PiecewiseLinear upper;
  double epsilon;
};

TEST(WaitTableKeyTest, FingerprintDistinguishesEveryKeyField) {
  StoreFixture fixture;
  const WaitTableKey base = fixture.KeyAt(400.0);
  EXPECT_EQ(base.Fingerprint(), fixture.KeyAt(400.0).Fingerprint());
  EXPECT_TRUE(base == fixture.KeyAt(400.0));

  auto expect_differs = [&](WaitTableKey mutated, const char* field) {
    EXPECT_FALSE(base == mutated) << field;
    EXPECT_NE(base.Fingerprint(), mutated.Fingerprint()) << field;
  };
  WaitTableKey k = base;
  k.deadline = 401.0;
  expect_differs(k, "deadline");
  k = base;
  k.fanout = 9;
  expect_differs(k, "fanout");
  k = base;
  k.epsilon *= 2.0;
  expect_differs(k, "epsilon");
  k = base;
  k.spec.scale_points = 8;
  expect_differs(k, "spec.scale_points");
  k = base;
  k.spec.family = DistributionFamily::kNormal;
  expect_differs(k, "spec.family");
  k = base;
  k.curve_max_x *= 2.0;
  expect_differs(k, "curve_max_x");
  k = base;
  k.curve_ys[1] += 1e-9;
  expect_differs(k, "curve_ys content");
}

TEST(WaitTableStoreTest, HitsMissesAndReuseByContent) {
  StoreFixture fixture;
  WaitTableStore store;
  auto a = store.GetOrBuild(fixture.KeyAt(300.0), fixture.upper);
  auto b = store.GetOrBuild(fixture.KeyAt(400.0), fixture.upper);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);

  // Content-equal keys hit regardless of which objects they were built from.
  auto a_again = store.GetOrBuild(fixture.spec, 8, fixture.upper, 300.0, fixture.epsilon);
  EXPECT_EQ(a_again, a);

  WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.Gets(), 3);
  EXPECT_EQ(store.size(), 2u);

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.GetStats().Gets(), 0);
}

TEST(WaitTableStoreTest, FingerprintCollisionsResolveByFullKeyCompare) {
  // fingerprint_mask=0 collapses every fingerprint to 0: all keys share one
  // chain, so correctness rests purely on the chained content compare.
  StoreFixture fixture;
  WaitTableStoreOptions options;
  options.fingerprint_mask = 0;
  WaitTableStore store(options);

  auto a = store.GetOrBuild(fixture.KeyAt(300.0), fixture.upper);
  auto b = store.GetOrBuild(fixture.KeyAt(400.0), fixture.upper);
  EXPECT_NE(a, b) << "colliding keys must still resolve to distinct tables";
  EXPECT_EQ(a->deadline(), 300.0);
  EXPECT_EQ(b->deadline(), 400.0);

  EXPECT_EQ(store.GetOrBuild(fixture.KeyAt(300.0), fixture.upper), a);
  EXPECT_EQ(store.GetOrBuild(fixture.KeyAt(400.0), fixture.upper), b);
  WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 2);
}

TEST(WaitTableStoreTest, SingleFlightBuildsExactlyOnce) {
  StoreFixture fixture;
  WaitTableStore store;
  const WaitTableKey key = fixture.KeyAt(400.0);

  constexpr int kThreads = 8;
  std::vector<WaitTableStore::TablePtr> tables(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Crude start barrier so the lookups race into the same miss window.
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      tables[static_cast<size_t>(t)] = store.GetOrBuild(key, fixture.upper);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[static_cast<size_t>(t)], tables[0]) << "thread " << t;
  }
  WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, 1) << "exactly one thread builds";
  EXPECT_EQ(stats.hits + stats.build_waits, kThreads - 1)
      << "the rest hit or block on the in-flight build";
  EXPECT_EQ(store.size(), 1u);
}

TEST(WaitTableStoreTest, LruEvictsLeastRecentlyUsedWithinCapacity) {
  StoreFixture fixture;
  WaitTableStoreOptions options;
  options.capacity = 2;
  options.num_shards = 1;  // one shard so the capacity bound is exact
  WaitTableStore store(options);

  auto a = store.GetOrBuild(fixture.KeyAt(100.0), fixture.upper);
  auto b = store.GetOrBuild(fixture.KeyAt(200.0), fixture.upper);
  EXPECT_EQ(store.GetOrBuild(fixture.KeyAt(100.0), fixture.upper), a);  // touch A
  auto c = store.GetOrBuild(fixture.KeyAt(300.0), fixture.upper);      // evicts B
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.GetStats().evictions, 1);

  // A stayed resident (it was touched); B was evicted and must rebuild.
  long long misses_before = store.GetStats().misses;
  EXPECT_EQ(store.GetOrBuild(fixture.KeyAt(100.0), fixture.upper), a);
  EXPECT_EQ(store.GetStats().misses, misses_before);
  auto b_rebuilt = store.GetOrBuild(fixture.KeyAt(200.0), fixture.upper);
  EXPECT_NE(b_rebuilt, b);
  EXPECT_EQ(store.GetStats().misses, misses_before + 1);
}

TEST(WaitTableStoreTest, ClampedLookupsSurviveEviction) {
  StoreFixture fixture;
  WaitTableStoreOptions options;
  options.capacity = 1;
  options.num_shards = 1;
  WaitTableStore store(options);

  auto a = store.GetOrBuild(fixture.KeyAt(100.0), fixture.upper);
  a->Lookup(fixture.spec.location_max + 10.0, fixture.spec.scale_max + 10.0);  // clamps
  a->Lookup(fixture.spec.location_min, fixture.spec.scale_min);                // in grid
  EXPECT_EQ(store.GetStats().clamped_lookups, 1) << "resident table's counter is visible";

  store.GetOrBuild(fixture.KeyAt(200.0), fixture.upper);  // evicts A (capacity 1)
  EXPECT_EQ(store.GetStats().evictions, 1);
  EXPECT_EQ(store.GetStats().clamped_lookups, 1)
      << "the evicted table's clamp count is retired into the store stats";
}

// The tree's one nested lock acquisition: with metrics on, EnforceCapacity
// runs under a shard mutex and takes the MetricsRegistry mutex to find the
// evictions counter. Threads share a capacity-1 store (one entry per shard),
// so the shards keep evicting and the tier1_tsan run sees that lock order.
TEST(WaitTableStoreTest, ConcurrentEvictionsCountedInMetrics) {
  StoreFixture fixture;
  WaitTableStoreOptions options;
  options.capacity = 1;
  WaitTableStore store(options);
  Counter& evictions = MetricsRegistry::Global().GetCounter("wait_table_store.evictions");
  const long long evictions_before = evictions.Value();
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);

  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const double deadline = 100.0 + 10.0 * (t * kLookupsPerThread + i);  // distinct keys
        store.GetOrBuild(fixture.KeyAt(deadline), fixture.upper);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  SetMetricsEnabled(metrics_were_enabled);

  const WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, kThreads * kLookupsPerThread);
  EXPECT_EQ(stats.evictions, stats.misses - static_cast<long long>(store.size()))
      << "every built table is either resident or evicted";
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(evictions.Value() - evictions_before, stats.evictions);
}

TEST(WaitTableStoreTest, ParallelBuildIsBitIdenticalToSerial) {
  StoreFixture fixture;
  ThreadPool pool(4);
  WaitTableStoreOptions options;
  options.build_pool = &pool;
  WaitTableStore store(options);

  auto parallel = store.GetOrBuild(fixture.KeyAt(400.0), fixture.upper);
  WaitTable serial(fixture.spec, 8, fixture.upper, 400.0, fixture.epsilon);

  for (int li = 0; li < fixture.spec.location_points; ++li) {
    double location = Lerp(fixture.spec.location_min, fixture.spec.location_max,
                           static_cast<double>(li) / (fixture.spec.location_points - 1));
    for (int si = 0; si < fixture.spec.scale_points; ++si) {
      double scale = Lerp(fixture.spec.scale_min, fixture.spec.scale_max,
                          static_cast<double>(si) / (fixture.spec.scale_points - 1));
      EXPECT_EQ(parallel->Lookup(location, scale), serial.Lookup(location, scale))
          << "grid point (" << li << ", " << si << ")";
    }
  }
}

TEST(WaitTableStoreTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&WaitTableStore::Global(), &WaitTableStore::Global());
}

}  // namespace
}  // namespace cedar
