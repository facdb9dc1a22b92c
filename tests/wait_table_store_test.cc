// WaitTableStore contract: content keying (every build input is part of the
// key, and equal content hits whatever object carries it), one cooperative
// build per key that is bit-identical to a serial one, and the store's
// counters under concurrent gets. Carries the tier1_tsan label: the
// racing-requester and gets-under-metrics paths are meant to run under
// -DCEDAR_SANITIZE=thread.

#include "src/core/wait_table_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/math_util.h"
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

  WaitTableStore::TablePtr Get(WaitTableStore& store, double deadline) const {
    return store.GetOrBuild(spec, kFanout, upper, deadline, epsilon);
  }

  static constexpr int kFanout = 8;
  WaitTableSpec spec;
  PiecewiseLinear upper;
  double epsilon;
};

// The smallest grid: the metrics test builds a table per key.
WaitTableSpec TinySpec() {
  WaitTableSpec spec;
  spec.location_min = 1.0;
  spec.location_max = 5.0;
  spec.location_points = 2;
  spec.scale_min = 0.2;
  spec.scale_max = 1.4;
  spec.scale_points = 2;
  return spec;
}

TEST(WaitTableStoreTest, ChangingAnyKeyFieldIsAMiss) {
  StoreFixture fixture;
  WaitTableStore store;
  const auto base = fixture.Get(store, 400.0);

  struct Inputs {
    WaitTableSpec spec;
    int fanout;
    PiecewiseLinear upper;
    double deadline;
    double epsilon;
  };
  const Inputs base_inputs{fixture.spec, StoreFixture::kFanout, fixture.upper, 400.0,
                           fixture.epsilon};
  const std::vector<std::pair<const char*, std::function<void(Inputs&)>>> mutations = {
      {"spec.family", [](Inputs& in) { in.spec.family = DistributionFamily::kNormal; }},
      {"spec.location_min", [](Inputs& in) { in.spec.location_min = 1.5; }},
      {"spec.location_max", [](Inputs& in) { in.spec.location_max = 5.5; }},
      {"spec.location_points", [](Inputs& in) { in.spec.location_points = 8; }},
      {"spec.scale_min", [](Inputs& in) { in.spec.scale_min = 0.3; }},
      {"spec.scale_max", [](Inputs& in) { in.spec.scale_max = 1.5; }},
      {"spec.scale_points", [](Inputs& in) { in.spec.scale_points = 8; }},
      {"fanout", [](Inputs& in) { in.fanout = 9; }},
      {"deadline", [](Inputs& in) { in.deadline = 401.0; }},
      {"epsilon", [](Inputs& in) { in.epsilon *= 2.0; }},
      {"curve extent",
       [](Inputs& in) { in.upper = PiecewiseLinear::FromUniform(0.0, 10.0, in.upper.ys()); }},
      {"one curve y",
       [](Inputs& in) {
         std::vector<double> ys = in.upper.ys();
         ys[1] += 1e-9;
         in.upper = PiecewiseLinear::FromUniform(0.0, 5.0, ys);
       }},
  };
  long long misses = store.GetStats().misses;
  for (const auto& [field, mutate] : mutations) {
    Inputs in = base_inputs;
    mutate(in);
    const auto table = store.GetOrBuild(in.spec, in.fanout, in.upper, in.deadline, in.epsilon);
    EXPECT_NE(table, base) << field;
    EXPECT_EQ(store.GetStats().misses, ++misses) << field;
  }
  EXPECT_EQ(store.GetStats().hits, 0);
  EXPECT_EQ(store.size(), mutations.size() + 1);
}

TEST(WaitTableStoreTest, EqualContentFromAnotherCurveObjectHits) {
  StoreFixture fixture;
  WaitTableStore store;
  const auto a = fixture.Get(store, 300.0);
  const auto b = fixture.Get(store, 400.0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);

  // A separately built curve with the same content is the same key.
  const PiecewiseLinear twin = TabulateCdf(LogNormalDistribution(3.25, 0.95), 400.0, 81);
  ASSERT_NE(&twin.ys(), &fixture.upper.ys());
  EXPECT_EQ(store.GetOrBuild(fixture.spec, StoreFixture::kFanout, twin, 300.0, fixture.epsilon),
            a);

  const WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.Gets(), 3);
  EXPECT_EQ(store.size(), 2u);
}

TEST(WaitTableStoreTest, RacingRequestersFillOneTableBitIdenticalToSerial) {
  // Eight requesters race into one key: one starts the build, the others
  // fill rows of it alongside or find it done. Whatever the split of rows,
  // the one table they all get is the serial build, bit for bit.
  StoreFixture fixture;
  fixture.spec.location_points = 40;  // 40 one-row chunks to share
  WaitTableStore store;

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
      tables[static_cast<size_t>(t)] = fixture.Get(store, 400.0);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[static_cast<size_t>(t)], tables[0]) << "thread " << t;
  }
  const WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, 1) << "exactly one requester starts the build";
  EXPECT_EQ(stats.hits + stats.build_waits, kThreads - 1)
      << "the rest join the build in flight or find it done";
  EXPECT_EQ(store.size(), 1u);

  const WaitTable serial(fixture.spec, StoreFixture::kFanout, fixture.upper, 400.0,
                         fixture.epsilon);
  const WaitTableSpec& spec = fixture.spec;
  for (int li = 0; li < spec.location_points; ++li) {
    const double location = Lerp(spec.location_min, spec.location_max,
                                 static_cast<double>(li) / (spec.location_points - 1));
    for (int si = 0; si < spec.scale_points; ++si) {
      const double scale = Lerp(spec.scale_min, spec.scale_max,
                                static_cast<double>(si) / (spec.scale_points - 1));
      // At a grid node the bilinear weights are 0: Lookup returns the cell.
      ASSERT_EQ(std::bit_cast<uint64_t>(tables[0]->Lookup(location, scale)),
                std::bit_cast<uint64_t>(serial.Lookup(location, scale)))
          << "grid point (" << li << ", " << si << ")";
    }
  }

  // After the build, a requester claims no chunk: it is a plain hit.
  EXPECT_EQ(fixture.Get(store, 400.0), tables[0]);
  const WaitTableStoreStats after = store.GetStats();
  EXPECT_EQ(after.hits, stats.hits + 1);
  EXPECT_EQ(after.build_waits, stats.build_waits);
  EXPECT_EQ(after.misses, 1);
}

TEST(WaitTableStoreTest, ClampedLookupsSumOverTables) {
  StoreFixture fixture;
  fixture.spec = TinySpec();
  WaitTableStore store;
  const auto first = fixture.Get(store, 100.0);
  const auto second = fixture.Get(store, 101.0);
  first->Lookup(fixture.spec.location_max + 10.0, fixture.spec.scale_max + 10.0);  // clamps
  second->Lookup(fixture.spec.location_min - 1.0, fixture.spec.scale_min);         // clamps
  second->Lookup(fixture.spec.location_min, fixture.spec.scale_min);               // in grid
  EXPECT_EQ(store.GetStats().clamped_lookups, 2);
}

// With metrics on, every get bumps a registry counter. The store bumps them
// only after releasing its own mutex, so four threads getting the same keys
// give the tier1_tsan run a chance to flag any nesting of the two locks.
TEST(WaitTableStoreTest, ConcurrentGetsCountedInMetrics) {
  StoreFixture fixture;
  fixture.spec = TinySpec();
  WaitTableStore store;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const char* const kNames[] = {"wait_table_store.hits", "wait_table_store.misses",
                                "wait_table_store.build_waits"};
  std::vector<long long> before;
  for (const char* name : kNames) {
    before.push_back(registry.GetCounter(name).Value());
  }
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);

  constexpr int kThreads = 4;
  constexpr int kKeys = 10;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; ++i) {
        fixture.Get(store, 100.0 + (i + 3 * t) % kKeys);  // each thread in its own order
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  SetMetricsEnabled(metrics_were_enabled);

  const WaitTableStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.misses, kKeys) << "one build per key";
  EXPECT_EQ(stats.Gets(), kThreads * kKeys);
  EXPECT_EQ(store.size(), static_cast<size_t>(kKeys));
  const long long counted[] = {stats.hits, stats.misses, stats.build_waits};
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(registry.GetCounter(kNames[i]).Value() - before[i], counted[i]) << kNames[i];
  }
}

TEST(WaitTableStoreTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&WaitTableStore::Global(), &WaitTableStore::Global());
}

}  // namespace
}  // namespace cedar
